(** First-class bug sources for the repair pipeline's locate stage.

    A detector produces durability-bug reports for a program: the
    dynamic pmemcheck-style bug finder, the workload-free static
    checker, or their union. Detectors share one report shape
    ({!Hippo_pmcheck.Report.bug}), so the stages after locate are
    oblivious to where bugs came from. *)

open Hippo_pmcheck

(** The classic three-way selection, kept for CLI/API compatibility. *)
type choice = Dynamic | Static | Both

(** What a detector found. [site_stats] and [trace_events] are only
    populated by dynamic execution (they feed the Trace-AA oracle and
    the offline-overhead experiment); [checker_stats] only by the static
    analyzer. *)
type outcome = {
  bugs : Report.bug list;
  site_stats : Sitestats.t option;
  trace_events : int;
  checker_stats : Hippo_staticcheck.Checker.stats option;
}

type t = {
  name : string;
  detect :
    Cache.view ->
    workload:(Machine.t -> unit) ->
    config:Machine.config ->
    outcome;
}

(** Execute the workload on a tracing machine. *)
val dynamic : t

(** Run the static durability checker (analyses come from the cache, so
    repeated detections of one program version are free). *)
val static_ : ?entries:string list -> unit -> t

(** Union of two detectors' reports, deduplicated; outcome metadata is
    merged (left operand wins on conflicts). *)
val union : t -> t -> t

val of_choice : ?entries:string list -> choice -> t
