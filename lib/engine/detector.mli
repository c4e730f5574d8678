(** The repair pipeline's bug sources, for its locate stage: the dynamic
    pmemcheck-style bug finder, the workload-free static checker, or
    their union. All three produce one report shape
    ({!Hippo_pmcheck.Report.bug}), so the stages after locate are
    oblivious to where bugs came from. *)

open Hippo_pmcheck

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

(** [detect choice view ~workload ~config] runs the chosen detector and
    returns what it found with its name ([dynamic], [static] or
    [dynamic+static]). [Dynamic] executes [workload] on a tracing
    machine; [Static] runs the static checker from [?entries], its
    analyses coming from the cache; [Both] runs both, in that order,
    and deduplicates their reports. *)
val detect :
  ?entries:string list ->
  choice ->
  Cache.view ->
  workload:(Machine.t -> unit) ->
  config:Machine.config ->
  outcome * string
