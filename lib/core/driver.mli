(** The repair pipeline (Fig. 2 of the paper):

    {v locate -> compute -> reduce -> hoist -> apply -> verify v}

    - {e locate} runs the bug finder ({!detector}) and records its
      reports, whose identities are IR identities locating each buggy
      store;
    - {e compute} is Phase 1 (intraprocedural fixes per bug);
    - {e reduce} is Phase 2 (fix reduction; passthrough when disabled);
    - {e hoist} is Phase 3 (the interprocedural heuristic; disabled,
      every fix stays intraprocedural);
    - {e apply} rewrites the program and registers the result as a new
      program version in the {!Hippo_engine.Cache.t};
    - {e verify} replays the workload on the original and the repaired
      program, or, in {!repair_static}, re-runs the static checker on
      the repaired version.

    {!optimize} runs the flush/fence optimizer the same way
    (opt-analyze -> opt-apply -> opt-verify). Every stage emits one
    structured {!Hippo_engine.Event.t}, into the result and to [?trace].
    Pass an explicit [?cache] to share memoized analyses (Andersen
    points-to, the Full-AA oracle, static summaries) across runs: an
    ablation sweep over one program computes each analysis once.

    {[
      let result = Driver.repair ~name:"myapp"
          ~workload:(fun t -> ignore (Compile.call t "main" [])) prog in
      assert (Verify.effective result.verification);
      Printer.to_string result.repaired
    ]} *)

open Hippo_pmir
open Hippo_pmcheck

(** The alias oracle behind hoisting and clone reuse: whole-program
    Andersen ([Full_aa]) or the workload trace's per-site observations
    ([Trace_aa]). *)
type oracle_choice = Full_aa | Trace_aa

type options = {
  oracle : oracle_choice;
  hoisting : bool;  (** Phase 3 on/off (off = the H-intra configuration) *)
  reduction : bool;  (** Phase 2 on/off (ablation A2) *)
  clone_reuse : bool;  (** share persistent subprograms (ablation A1) *)
  style : Apply.style;  (** raw clwb/sfence vs portable libpmem calls *)
  jobs : int;
      (** domain budget for the verify stage, which runs the original
          and repaired workload executions concurrently when
          [jobs > 1]; 1 (the default) keeps the pipeline serial. Every
          output but the verify event's [parallel] field is the same at
          any width. *)
}

val default_options : options

type result = {
  target : string;
  bugs : Report.bug list;
  plan : Fix.plan;
  decisions : Hippo_engine.Heuristic.decision list;
  repaired : Program.t;
  apply_stats : Apply.stats;
  verification : Verify.outcome;
  raw_fix_count : int;
  reduce_eliminated : int;
  input_instrs : int;
  output_instrs : int;
  time_s : float;
      (** process CPU time ([Sys.time]) of the whole pipeline (Fig. 5) *)
  peak_heap_bytes : int;
  trace_events : int;
  events : Hippo_engine.Event.t list;
      (** structured per-stage events, in emission order *)
}

(** [plan ?options ~oracle prog bugs] runs Steps 2-3 only: compute the fix
    plan for externally-supplied bug reports (e.g. parsed from an on-disk
    trace file, the artifact's command-line mode). Returns the plan, the
    hoisting decisions, and the number of fixes reduction eliminated.
    Its events (locate, with detector [preset], then compute, reduce and
    hoist) go only to [?trace]. *)
val plan :
  ?options:options ->
  ?cache:Hippo_engine.Cache.t ->
  ?trace:(Hippo_engine.Event.t -> unit) ->
  oracle:Hippo_alias.Oracle.t ->
  Program.t ->
  Report.bug list ->
  Fix.plan * Hippo_engine.Heuristic.decision list * int

(** Which bug finder seeds the repair. [Dynamic] is the paper's pipeline
    (pmemcheck-style tracing); [Static] takes the reports of
    {!Hippo_staticcheck.Checker} instead — same report shape, same repair
    stages; [Both] unions the two report sets
    ({!Hippo_engine.Detector.detect}). *)
type detector = Hippo_engine.Detector.choice = Dynamic | Static | Both

(** The full pipeline. [workload] drives the program on a machine; the
    same workload is replayed on the repaired program for verification.
    [detector] (default [Dynamic]) selects where the bug reports come
    from; verification is always dynamic. [static_entries] overrides the
    static checker's entry points. *)
val repair :
  ?options:options ->
  ?detector:detector ->
  ?static_entries:string list ->
  ?cache:Hippo_engine.Cache.t ->
  ?trace:(Hippo_engine.Event.t -> unit) ->
  name:string ->
  workload:(Machine.t -> unit) ->
  ?config:Machine.config ->
  Program.t ->
  result

val pp_summary : Format.formatter -> result -> unit

(** Outcome of the workload-free static pipeline: repair driven purely by
    static reports, verified by re-running the static checker on the
    repaired program. *)
type static_result = {
  s_target : string;
  s_bugs : Report.bug list;
  s_plan : Fix.plan;
  s_decisions : Hippo_engine.Heuristic.decision list;
  s_repaired : Program.t;
  s_apply : Apply.stats;
  s_residual : Report.bug list;  (** static bugs left after repair *)
  s_checker : Hippo_staticcheck.Checker.stats;
  s_time : float;
  s_events : Hippo_engine.Event.t list;
}

(** Workload-free repair from static reports. Respects [options.oracle]:
    [Full_aa] (the default) uses the whole-program Andersen oracle;
    [Trace_aa] raises [Invalid_argument] — it needs a workload trace,
    which this entry point by definition does not have (use
    [repair ~detector:Static] with a workload instead). *)
val repair_static :
  ?options:options ->
  ?entries:string list ->
  ?cache:Hippo_engine.Cache.t ->
  ?trace:(Hippo_engine.Event.t -> unit) ->
  name:string ->
  Program.t ->
  static_result

val pp_static_summary : Format.formatter -> static_result -> unit

(** Outcome of the flush/fence optimizer pipeline (opt-analyze ->
    opt-apply -> opt-verify; see {!Hippo_engine.Optimize}). *)
type opt_result = {
  t_target : string;
  t_outcome : Hippo_engine.Optimize.outcome;
  t_time : float;
  t_events : Hippo_engine.Event.t list;
}

(** Remove provably-redundant flushes and fences: deletions must be the
    identity on the static checker's converged states {e and} dynamic
    no-ops under a strict must-analysis; the rewrite is reverted
    wholesale if the static bug reports are not byte-identical
    afterwards. Share [?cache] with {!repair_static} over the same
    program to run Andersen exactly once across repair and optimize. *)
val optimize :
  ?entries:string list ->
  ?cache:Hippo_engine.Cache.t ->
  ?trace:(Hippo_engine.Event.t -> unit) ->
  name:string ->
  Program.t ->
  opt_result

val pp_opt_summary : Format.formatter -> opt_result -> unit
