(** Redis_mini: a persistent hash-table key-value store in PMIR, modelled
    on Redis-pmem's PMDK dict (§6.3's subject).

    Commands go through a wire-buffer layer ([cmd_set], [cmd_get],
    [cmd_del], [cmd_count], [cmd_check] over the [g_*] globals) and copy
    data with the shared [memcpy] — into PM (SET's key and value) and into
    volatile staging/reply buffers (protocol decode and reply echoes) —
    recreating the fix-placement tension of §3.2. Every mutating command
    ends with an [sfence]; the {!Flush_free} build has no flushes at all
    (the Hippocrates repair input), while {!Manual} is the hand-written
    Redis-pm baseline, on which pmcheck reports no bugs. *)

open Hippo_pmir
open Hippo_pmcheck

type variant = Flush_free | Manual

val variant_to_string : variant -> string

(** Build the program (validated). *)
val build : variant -> Program.t

(** A YCSB client session: the host side fills the server's connection
    buffers and issues commands. *)
type session = {
  machine : Machine.t;
  key_buf : int;
  val_buf : int;
  reply_buf : int;
  g_klen : int;
  g_vlen : int;
}

val key_cap : int
val val_cap : int

(** Initialize the server and locate the connection buffers on an existing
    machine (used when a repair or measurement harness owns it). *)
val attach : ?nbuckets:int -> Machine.t -> session

val start : ?config:Machine.config -> ?nbuckets:int -> Program.t -> session

(** Rebind the server roots on a machine restarted over a crash
    image ([Machine.restart ~pm_image]). Recovery is host-side root
    recomputation (the header is the pool's first allocation) plus fresh
    volatile connection buffers; nothing durable is written and the
    program itself is untouched, so repair analysis sees no extra call
    sites. *)
val recover_attach : Machine.t -> session

val set_key : session -> int -> unit
val set_value : session -> k:int -> version:int -> unit
val op_insert : session -> k:int -> version:int -> unit

(** Returns the value length, or -1 when absent; the bytes land in
    [reply_buf]. *)
val op_read : session -> k:int -> int

val op_delete : session -> k:int -> int
val run_op : session -> Hippo_ycsb.Workload.op -> unit
val count : session -> int
