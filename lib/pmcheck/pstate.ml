(** The persistency state machine (paper §4.2 definitions).

    Tracks, per PM store, whether the stored range is still {e dirty} in
    the CPU cache, {e pending} (covered by a weakly-ordered flush that no
    fence has ordered yet), or durable. Durable ranges are copied into the
    persisted image so crash simulation sees exactly the bytes a real crash
    would preserve.

    Deterministic-pessimistic model: lines are never spontaneously evicted,
    so "may still be volatile at the crash" becomes "is volatile at the
    crash" — the same worst-case stance pmemcheck takes when it reports
    every unflushed store.

    Only live records (dirty or pending) are indexed, by the cache lines
    they touch, so a store, flush or fence costs the live records of its
    own lines, and a crash-point read costs the live records. *)

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
  mutable flushed_by : Iid.t option;  (** the flush that moved it to pending *)
}

(* Line numbers hash by a multiply and a shift, with no call into the
   runtime's polymorphic hash. The table indexes by the low bits, so the
   shift folds the high ones in: lines a power-of-two stride apart must
   not share a slot. *)
module Lines = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash line =
    let h = line * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

(* A line's live records, newest store first, and the number of the last
   fence that drained the line (so a fence filters each line once). *)
type bucket = { mutable recs : record list; mutable drained_by : int }

(* Invariants:
   - every live record sits in the bucket of each line it touches, and in
     no other; a line without live records has no bucket;
   - buckets are newest first: stores arrive in increasing [seq];
   - a record is [Pending] exactly when it is in [pending], and it is
     there once. [pending] is newest first unless flushes of different
     lines interleave their records' seqs. *)
type t = {
  lines : bucket Lines.t;
  mutable pending : record list;
  mutable last_fence_seq : int;
  mutable stores : int;
  mutable flushes : int;
  mutable fences : int;
}

let create () =
  {
    lines = Lines.create 64;
    pending = [];
    last_fence_seq = -1;
    stores = 0;
    flushes = 0;
    fences = 0;
  }

let stores t = t.stores
let flushes t = t.flushes
let fences t = t.fences
let first_line r = Layout.line_of_addr r.addr
let last_line r = Layout.line_of_addr (r.addr + r.size - 1)
let compare_seq a b = Int.compare a.seq b.seq
let is_dirty r = r.state = Dirty

let rec newest_first = function
  | a :: (b :: _ as rest) -> a.seq > b.seq && newest_first rest
  | _ -> true

let oldest_first records =
  if newest_first records then List.rev records
  else List.sort compare_seq records

(* A dirty record that a store to [lo, hi) re-dirties whole. *)
let covered lo hi r = r.state = Dirty && r.addr >= lo && r.addr + r.size <= hi

let rec any_covered lo hi = function
  | [] -> false
  | r :: rest -> covered lo hi r || any_covered lo hi rest

(** Record a PM store. Overlapping older {e dirty} records are superseded:
    the new store re-dirties the range, so only the newest cached value's
    durability matters. Pending records are left alone — they model
    writebacks already in flight toward the write-pending queue, which a
    later store to the same range cannot recall. *)
let store t ~iid ~loc ~stack ~addr ~size ~seq =
  t.stores <- t.stores + 1;
  let hi = addr + size in
  let r =
    { iid; loc; stack; addr; size; seq; state = Dirty; snapshot = "";
      flushed_by = None }
  in
  (* a covered record lies on these lines only, so this drops it from
     every bucket it sits in *)
  for line = Layout.line_of_addr addr to Layout.line_of_addr (hi - 1) do
    match Lines.find_opt t.lines line with
    | None -> Lines.add t.lines line { recs = [ r ]; drained_by = 0 }
    | Some b ->
        let live =
          if any_covered addr hi b.recs then
            List.filter (fun x -> not (covered addr hi x)) b.recs
          else b.recs
        in
        b.recs <- r :: live
  done;
  r

(** Nontemporal stores bypass the cache into the write-pending queue: they
    are durable after the next fence, without any flush. *)
let store_nt t mem ~iid ~loc ~stack ~addr ~size ~seq =
  let r = store t ~iid ~loc ~stack ~addr ~size ~seq in
  r.state <- Pending;
  r.snapshot <- Mem.read_string mem ~addr ~len:size;
  t.pending <- r :: t.pending

(* Make a record's flush-time snapshot durable. The snapshot (not the
   current working bytes) is what the flush wrote back: stores issued to
   the same range after the flush but before the fence are not covered.
   Routed through Mem so the durable-image fingerprint stays current. *)
let commit_snapshot mem (r : record) =
  Mem.persist_string mem ~addr:r.addr r.snapshot

(* Drop a durable record from the buckets it still sits in. *)
let unindex t r =
  for line = first_line r to last_line r do
    match Lines.find_opt t.lines line with
    | None -> ()
    | Some b -> (
        match List.filter (fun x -> x != r) b.recs with
        | [] -> Lines.remove t.lines line
        | recs -> b.recs <- recs)
  done

(* The records of [recs] (newest first) in [state], oldest first. *)
let oldest_in state recs =
  List.fold_left
    (fun acc r -> if r.state = state then r :: acc else acc)
    [] recs

(** Flush the cache line containing [addr]. Dirty records intersecting the
    line capture their current working bytes and become pending ([Clwb],
    [Clflushopt]) or immediately durable ([Clflush], which the ISA orders
    with respect to stores to the same line). Returns the number of dirty
    records the flush transitioned. *)
let flush t mem ~iid ~kind ~addr =
  t.flushes <- t.flushes + 1;
  if not (Layout.is_pm addr) then 0
  else
    let line = Layout.line_of_addr addr in
    match Lines.find_opt t.lines line with
    | None -> 0
    | Some b ->
        (* every record of the bucket touches the line *)
        let dirty = oldest_in Dirty b.recs in
        let by = Some iid in
        let capture r =
          r.snapshot <- Mem.read_string mem ~addr:r.addr ~len:r.size;
          r.flushed_by <- by
        in
        (match kind with
        | Instr.Clwb | Instr.Clflushopt ->
            List.iter
              (fun r ->
                capture r;
                r.state <- Pending;
                t.pending <- r :: t.pending)
              dirty
        | Instr.Clflush ->
            (* Write-backs to one line complete in order, so a clflush —
               which makes the line's current contents durable right away
               — logically completes after any earlier still-in-flight
               flush of the same line. Drain those pending records first
               (oldest first), or their stale snapshots would overwrite
               the newer bytes at the next fence. *)
            let in_flight = oldest_in Pending b.recs in
            List.iter (commit_snapshot mem) in_flight;
            if in_flight <> [] then
              t.pending <-
                List.filter
                  (fun r -> line < first_line r || last_line r < line)
                  t.pending;
            List.iter
              (fun r ->
                capture r;
                commit_snapshot mem r)
              dirty;
            (* the line holds no live record now; a record that also
               touches a neighbouring line leaves that bucket too *)
            Lines.remove t.lines line;
            List.iter (unindex t) in_flight;
            List.iter (unindex t) dirty);
        List.length dirty

(* Does a pending record of [recs] start on [line]? *)
let rec pending_starts_on line = function
  | [] -> false
  | r :: rest ->
      (r.state = Pending && first_line r = line)
      || pending_starts_on line rest

(** A fence orders every pending flush: pending records become durable.
    Returns the number of distinct cache lines in which drained records
    {e start} — a record straddling two lines counts once — the
    write-pending-queue drain work a real sfence waits for. *)
let fence t mem ~seq =
  t.fences <- t.fences + 1;
  t.last_fence_seq <- seq;
  match t.pending with
  | [] -> 0
  | pending ->
      t.pending <- [];
      (* Write-backs of overlapping ranges land in store order: commit
         oldest first so the newest flushed snapshot is the one that
         survives. *)
      let ordered = oldest_first pending in
      List.iter (commit_snapshot mem) ordered;
      (* Each touched line is filtered once, dropping all of its pending
         records; a drained record still sits in its first line's bucket
         when that line is filtered, so each start line counts once. *)
      let fence_no = t.fences and starts = ref 0 in
      List.iter
        (fun r ->
          for line = first_line r to last_line r do
            match Lines.find_opt t.lines line with
            | Some b when b.drained_by <> fence_no -> (
                if pending_starts_on line b.recs then incr starts;
                match List.filter is_dirty b.recs with
                | [] -> Lines.remove t.lines line
                | recs ->
                    b.recs <- recs;
                    b.drained_by <- fence_no)
            | _ -> ()
          done)
        ordered;
      !starts

(* Every live record once: under its first line. *)
let fold_live f t acc =
  Lines.fold
    (fun line b acc ->
      List.fold_left
        (fun acc r -> if first_line r = line then f r acc else acc)
        acc b.recs)
    t.lines acc

(** All still-unpersisted records, classified (paper §4.2): a [Dirty]
    record whose store precedes the last fence is a missing-flush (a fence
    that could order a flush exists); a [Dirty] record with no subsequent
    fence is missing-flush&fence; a [Pending] record is missing-fence.
    Sorted by source location, then oldest store first. *)
let unpersisted_bugs t ~(crash : Report.crash_info) : Report.bug list =
  let by_site a b =
    match Loc.compare a.loc b.loc with 0 -> compare_seq a b | c -> c
  in
  List.map
    (fun r ->
      let kind =
        match r.state with
        | Pending -> Report.Missing_fence
        | Dirty ->
            if r.seq < t.last_fence_seq then Report.Missing_flush
            else Report.Missing_flush_fence
      in
      {
        Report.kind;
        store =
          { iid = r.iid; loc = r.loc; stack = r.stack; addr = r.addr;
            size = r.size };
        crash;
        ordering_flush = r.flushed_by;
      })
    (List.sort by_site (fold_live List.cons t []))

(** Count of records not yet durable (dirty or pending). *)
let unpersisted_count t = fold_live (fun _ n -> n + 1) t 0

let pending_count t = List.length t.pending

(* ------------------------------------------------------------------ *)
(* Fault-injection hooks (the simulation harness).

   At an injected crash the harness perturbs the durable image beyond the
   deterministic-pessimistic endpoint: it may evict a subset of in-flight
   write-backs (reordered WPQ drain across lines) and tear dirty cache
   lines (partial eviction at 8-byte store-atomicity granularity). Both
   entry points below preserve the machine's physical ordering rules, so
   no injected schedule can fabricate an impossible image. *)

(** Every still-dirty record, oldest store first (deterministic iteration
    base for fault injection and tests). *)
let dirty_records t =
  List.sort compare_seq
    (fold_live (fun r acc -> if is_dirty r then r :: acc else acc) t [])

(** In-flight (flushed, unfenced) records, oldest first. *)
let pending_records t = oldest_first t.pending

let lines_of r =
  List.init (last_line r - first_line r + 1) (fun i -> first_line r + i)

(** [commit_chosen t mem chosen] makes a chosen subset of the in-flight
    write-backs durable, modelling a write-pending queue that drained
    some entries before power was lost. Write-backs to one cache line
    complete in store order (the invariant a clflush's drain keeps), so
    the chosen set is first {e closed}: picking a record drags along every
    older pending record sharing a cache line with it, transitively.
    Committing then proceeds oldest-first, exactly like {!fence} — an
    injected schedule can choose {e which lines} drained, never the
    within-line order. Returns the number of records made durable. *)
let commit_chosen t mem chosen =
  let pend = pending_records t in
  let picked = Hashtbl.create 16 in
  List.iter (fun r -> if chosen r then Hashtbl.replace picked r.seq ()) pend;
  (* close under "older pending record sharing a cache line with a
     picked record"; iterate to a fixpoint since dragged records widen
     the picked line set *)
  let share_line a b =
    List.exists (fun l -> List.mem l (lines_of b)) (lines_of a)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        if
          (not (Hashtbl.mem picked r.seq))
          && List.exists
               (fun r' ->
                 Hashtbl.mem picked r'.seq
                 && r'.seq > r.seq && share_line r r')
               pend
        then begin
          Hashtbl.replace picked r.seq ();
          changed := true
        end)
      pend
  done;
  let drained, in_flight =
    List.partition (fun r -> Hashtbl.mem picked r.seq) t.pending
  in
  List.iter
    (fun r ->
      commit_snapshot mem r;
      unindex t r)
    (oldest_first drained);
  t.pending <- in_flight;
  List.length drained

(** [tear_dirty mem r ~keep_word] partially evicts a dirty record: each
    8-byte-aligned word of its range whose index satisfies [keep_word]
    has its {e working} bytes copied into the durable image (stores are
    word-atomic on the simulated machine, so tearing never splits a
    word). The record itself stays dirty — tearing models an eviction
    the program never observed. *)
let tear_dirty mem (r : record) ~keep_word =
  let lo = r.addr and hi = r.addr + r.size in
  let w0 = lo / 8 and w1 = (hi - 1) / 8 in
  for w = w0 to w1 do
    if keep_word (w - w0) then begin
      let a = max lo (w * 8) and b = min hi ((w + 1) * 8) in
      Mem.persist_range mem ~addr:a ~size:(b - a)
    end
  done
