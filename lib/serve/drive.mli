(** The in-process driver: load generator + codec + handler + metrics,
    minus the sockets. Dispatch is a deterministic round-robin across
    logical workers (frame generation fans out over the [--jobs] pool
    but is pure per-worker work collected in submission order), and each
    frame goes through {!Handler.handle_wire}, so CI exercises exactly
    the codec the network listener does. Every {!outcome} field except
    the wall-clock ones is byte-identical at any [--jobs] width. *)

open Hippo_ycsb

(** Interpreter config for a service holding [final_records] entries:
    trace off, unlimited fuel, the default cost model, a PM segment
    sized to the record count (it bounds addresses; memory follows the
    pages touched). *)
val serve_config :
  final_records:int ->
  unit ->
  Hippo_pmcheck.Interp.config

val serve_nbuckets : final_records:int -> int

type outcome = {
  app_name : string;
  workers : int;
  records : int;  (** loaded records, all workers *)
  final_records : int;  (** records after the run's inserts *)
  load_reqs : int;
  run_reqs : int;
  load_verdicts : Loadgen.verdicts;
  run_verdicts : Loadgen.verdicts;
  hist : Hippo_perfmodel.Stats.Hist.t;
  sim_load_ns : float;
  sim_run_ns : float;
  wall_load_s : float;  (** wall clock; NOT deterministic *)
  wall_run_s : float;
  count : int;
  check : bool;
  digest : int;  (** FNV over the full final store contents *)
}

(** Run the whole pipeline in-process. [Error] when the app/variant
    cannot be built (e.g. pclht flush-free, or repair verification
    fails). *)
val run_inproc :
  pool:Hippo_parallel.Pool.t ->
  app:Hippo_apps.App.kind ->
  variant:Hippo_apps.App.variant ->
  workload:Workload.kind ->
  records:int ->
  ops:int ->
  workers:int ->
  seed:int ->
  unit ->
  (outcome, string) result

(** Do two variants agree on every deterministic service observable
    (verdicts, final count, store digest)? The serve-level
    do-no-harm check. *)
val agrees : outcome -> outcome -> bool

(** Deterministic rendering (no wall-clock fields): the smoke output. *)
val pp_outcome : Format.formatter -> outcome -> unit
