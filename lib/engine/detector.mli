(** First-class bug sources for the repair engine.

    A detector is anything that can produce durability-bug reports for a
    program: the dynamic pmemcheck-style interpreter, the workload-free
    static checker, their union — or a preset list of reports parsed
    from an on-disk trace. Detectors share one report shape
    ({!Hippo_pmcheck.Report.bug}), so the downstream passes are
    oblivious to where bugs came from; making the source a first-class
    value is what lets the engine serve every pipeline variant with a
    single pass list. *)

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
    workload:(Interp.t -> unit) option ->
    config:Interp.config ->
    outcome;
}

(** Execute the workload under the tracing interpreter.
    Raises [Invalid_argument] when no workload is supplied. *)
val dynamic : t

(** Run the static durability checker (analyses come from the cache, so
    repeated detections of one program version are free). *)
val static_ : ?entries:string list -> unit -> t

(** Union of two detectors' reports, deduplicated; outcome metadata is
    merged (left operand wins on conflicts). *)
val union : t -> t -> t

(** Externally-supplied reports (e.g. parsed from a trace file). *)
val preset : ?site_stats:Sitestats.t -> Report.bug list -> t

val of_choice : ?entries:string list -> choice -> t
