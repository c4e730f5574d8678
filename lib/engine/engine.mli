(** The pass-manager engine.

    One pass list serves every repair pipeline variant (Fig. 2 of the
    paper, previously hand-coded per driver entry point):

    {v locate -> compute -> reduce -> hoist -> apply -> verify v}

    - {e locate} runs the {!Detector.t} (dynamic interpreter, static
      checker, union, or preset reports) and records the bug reports —
      whose identities are IR identities, locating each bug's store;
    - {e compute} is Phase 1 (intraprocedural fixes per bug);
    - {e reduce} is Phase 2 (fix reduction; passthrough when disabled);
    - {e hoist} is Phase 3 (the interprocedural heuristic; disabled
      means every fix stays intraprocedural);
    - {e apply} rewrites the program and registers the result as a new
      program version in the {!Cache.t} (bumping the version counter);
    - {e verify} replays the workload on original and repaired program
      (dynamic), or re-runs the static checker on the repaired version
      when there is no workload.

    Every pass execution emits a structured {!Event.t}. Passing an
    explicit [?cache] shares memoized analyses (Andersen points-to, the
    Full-AA oracle, static summaries, program sizes) across runs: an
    ablation sweep over one program computes each analysis once. *)

open Hippo_pmir
open Hippo_pmcheck

(** The standard pass list, exposed for custom pipelines. *)
val passes : Pass.t list

(** Run the full pipeline; the returned context holds every
    intermediate product and the emitted events. [workload] drives
    dynamic detection (when the detector needs it) and verification;
    without it, verification is the static residual check. *)
val run :
  ?options:Context.options ->
  ?cache:Cache.t ->
  ?trace:(Event.t -> unit) ->
  ?static_entries:string list ->
  detector:Detector.t ->
  ?workload:(Machine.t -> unit) ->
  ?config:Machine.config ->
  name:string ->
  Program.t ->
  Context.t

(** The flush/fence optimizer pass list (see {!Optimize}):

    {v opt-analyze -> opt-apply -> opt-verify v}

    - {e opt-analyze} runs the observed static check plus the strict
      must-analysis and records the proposed removals;
    - {e opt-apply} deletes them and registers the result as a new
      program version (the input version when nothing was removable);
    - {e opt-verify} re-runs the static checker on the optimized
      version and {e reverts the whole rewrite} unless the reports are
      identical — repair must do no harm to speed, and the optimizer
      must do no harm to safety.

    Exposed for custom pipelines (e.g. repair-then-optimize over one
    shared cache, where Andersen runs once per program version). *)
val opt_passes : Pass.t list

(** Run the optimizer pipeline on [prog]; the returned context holds
    {!Context.t.opt_outcome} and the optimized version view. *)
val optimize :
  ?cache:Cache.t ->
  ?trace:(Event.t -> unit) ->
  ?static_entries:string list ->
  ?name:string ->
  Program.t ->
  Context.t

(** Steps 2–3 only: compute the fix plan for externally-supplied bug
    reports under an externally-built oracle. Returns the plan, the
    hoisting decisions, and the number of fixes reduction eliminated. *)
val plan :
  ?options:Context.options ->
  ?cache:Cache.t ->
  ?trace:(Event.t -> unit) ->
  oracle:Hippo_alias.Oracle.t ->
  Program.t ->
  Report.bug list ->
  Fix.plan * Heuristic.decision list * int
