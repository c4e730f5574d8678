(** The persistency state machine (paper §4.2 definitions).

    Tracks, per PM store, whether the stored range is still {e dirty} in
    the CPU cache, {e pending} (covered by a weakly-ordered flush that no
    fence has ordered yet), or durable. Durable ranges are copied into the
    persisted image, so crash simulation sees exactly the bytes a real
    crash would preserve.

    Deterministic-pessimistic model: lines are never spontaneously
    evicted, so "may still be volatile at the crash" becomes "is volatile
    at the crash" — the same worst-case stance pmemcheck takes.

    Only live (dirty or pending) records are indexed: an int-keyed table
    maps each cache line holding one to its live records, newest store
    first, and a line leaves the table when its last record becomes
    durable or is superseded. A store, flush or fence therefore costs the
    live records on the lines it touches, and the crash-point readers
    ({!unpersisted_bugs}, {!unpersisted_count}, {!dirty_records}) cost
    the live records — never the lines ever touched. Callers pass stores
    in increasing [seq] order (the machine's global event counter). *)

open Hippo_pmir

type state = Dirty | Pending

type record = {
  iid : Iid.t;
  loc : Loc.t;
  stack : Trace.stack;
  addr : int;
  size : int;
  seq : int;  (** global event sequence number of the store *)
  mutable state : state;
  mutable snapshot : string;  (** bytes captured at flush time *)
  mutable flushed_by : Iid.t option;  (** the flush that made it pending *)
}

type t

val create : unit -> t

(** Record a PM store. Overlapping older {e dirty} records are superseded;
    pending records (write-backs already in flight) are left alone. *)
val store :
  t ->
  iid:Iid.t ->
  loc:Loc.t ->
  stack:Trace.stack ->
  addr:int ->
  size:int ->
  seq:int ->
  record

(** Nontemporal stores bypass the cache into the write-pending queue:
    durable after the next fence, without any flush. *)
val store_nt :
  t ->
  Mem.t ->
  iid:Iid.t ->
  loc:Loc.t ->
  stack:Trace.stack ->
  addr:int ->
  size:int ->
  seq:int ->
  unit

(** Flush the cache line containing [addr]. Dirty records intersecting the
    line capture their current working bytes and become pending ([Clwb],
    [Clflushopt]) or immediately durable ([Clflush]). Returns the number
    of records transitioned. No effect outside PM. *)
val flush : t -> Mem.t -> iid:Iid.t -> kind:Instr.flush_kind -> addr:int -> int

(** A fence makes every pending record durable (committing the
    flush-time snapshots, oldest store first). Returns the number of
    distinct cache lines in which drained records {e start}, the
    write-pending-queue work a real sfence waits for: a record straddling
    two lines counts once. *)
val fence : t -> Mem.t -> seq:int -> int

(** All still-unpersisted records, classified per §4.2: [Dirty] with a
    later fence = missing-flush; [Dirty] with no later fence =
    missing-flush&fence; [Pending] = missing-fence. Sorted by source
    location, then by store [seq], oldest first. *)
val unpersisted_bugs : t -> crash:Report.crash_info -> Report.bug list

val unpersisted_count : t -> int
val pending_count : t -> int

(** PM stores recorded (nontemporal ones included). *)
val stores : t -> int

(** Flushes executed, at PM and volatile addresses. *)
val flushes : t -> int

val fences : t -> int

(** {2 Fault-injection hooks (the simulation harness)}

    Both entry points preserve the machine's physical ordering rules —
    no injected schedule can fabricate an image real hardware could not
    produce. *)

(** Every still-dirty record, oldest store first. *)
val dirty_records : t -> record list

(** In-flight (flushed, unfenced) records, oldest first. *)
val pending_records : t -> record list

(** [commit_chosen t mem chosen] makes a chosen subset of in-flight
    write-backs durable — a write-pending queue that drained some
    entries before power loss. The chosen set is closed under "older
    pending record sharing a cache line" and committed oldest-first, so
    injected reordering can pick {e which lines} drained but can never
    violate per-line store order (the invariant a clflush's drain of
    earlier in-flight flushes to its line keeps).
    Returns the number of records made durable. *)
val commit_chosen : t -> Mem.t -> (record -> bool) -> int

(** [tear_dirty mem r ~keep_word] partially evicts a dirty record: each
    8-byte-aligned word [w] of its range with [keep_word w] true has its
    working bytes copied into the durable image (8-byte store
    atomicity). The record stays dirty. *)
val tear_dirty : Mem.t -> record -> keep_word:(int -> bool) -> unit
