(** Timed execution: run a host driver against a program under the latency
    cost model and report simulated throughput. *)

open Hippo_pmcheck

type run = {
  ops : int;
  sim_ns : float;  (** simulated nanoseconds accumulated by the model *)
  steps : int;  (** interpreted instructions *)
}

(** Thousands of operations per simulated second. *)
val throughput_kops : run -> float

(** [measure prog ~setup ~drive ~ops] creates an untraced machine with
    the cost model, runs [setup] (not timed — it may build driver state
    such as scratch buffers and return it), then [drive] (timed); [ops] is
    the operation count [drive] performs. *)
val measure :
  ?cost:Cost.t ->
  Hippo_pmir.Program.t ->
  setup:(Machine.t -> 'a) ->
  drive:(Machine.t -> 'a -> unit) ->
  ops:int ->
  run

(** [trials n f] runs [f seed] for seeds 1..n and summarizes the
    throughputs. *)
val trials : int -> (int -> run) -> Stats.summary

(** Static persistence-operation counts: the no-bench-needed visibility
    metric for flush/fence redundancy removal. [flushes]/[fences] count
    [Flush]/[Fence] instructions plus call sites of the mini-libpmem
    entry points that flush and/or fence ([pmem_flush], [pmem_drain],
    [pmem_persist], [pmem_memcpy_persist] — the persist variants count as
    one of each). *)
type static_counts = { stores : int; flushes : int; fences : int }

val static_counts : Hippo_pmir.Program.t -> static_counts
val pp_static_counts : Format.formatter -> static_counts -> unit
