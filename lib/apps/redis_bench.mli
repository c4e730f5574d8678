(** The Redis case study (§6.3, Fig. 4): build the three persistent
    Redises (H-intra / hand-written Redis-pm / H-full), confirm all are
    pmemcheck-clean, and drive them through YCSB under the latency cost
    model. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core

(** The repair workload: exercises every PM-mutating path plus the
    volatile paths that teach the heuristic which helpers are dual-use. *)
val repair_workload : Machine.t -> unit

type variants = {
  h_intra : Program.t;  (** repaired with Phase 3 disabled *)
  manual : Program.t;  (** the hand-written port *)
  h_full : Program.t;  (** full Hippocrates repair *)
  full_result : Driver.result;
  intra_result : Driver.result;
}

val repair_variants : unit -> variants

(** Bugs pmcheck reports on the program under the repair workload. *)
val residual_bugs : Program.t -> Report.bug list

(** One timed trial of one workload against one program variant. *)
val trial :
  ?cost:Cost.t ->
  Program.t ->
  Hippo_ycsb.Workload.spec ->
  seed:int ->
  Hippo_perfmodel.Timed.run

type row = {
  workload : Hippo_ycsb.Workload.kind;
  intra : Hippo_perfmodel.Stats.summary;
  manual_pm : Hippo_perfmodel.Stats.summary;
  full : Hippo_perfmodel.Stats.summary;
}

(** The full Fig. 4 sweep; throughputs in simulated kops/s. *)
val figure4 :
  ?trials:int -> ?record_count:int -> ?op_count:int -> variants -> row list

val pp_row : Format.formatter -> row -> unit
