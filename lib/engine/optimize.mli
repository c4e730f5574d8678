(** Bentō-style flush/fence optimizer: remove provably-redundant
    persistence operations without doing any harm.

    Hippocrates' repair passes insert flushes and fences conservatively;
    this pass family walks the repaired (or any) program and deletes
    persistence operations that are redundant on {e every} path:

    - a {b covered flush} whose exact cache lines are already durable
      ([Covered_flush]), or that provably never touches PM
      ([Volatile_flush]);
    - a {b dominated fence} with provably nothing in any write-pending
      queue — no flush or non-temporal store since the last fence on any
      path ([Dominated_fence]); adjacent fences coalesce this way;
    - a {b coalescible fence}: every path from it reaches a {e kept}
      fence without passing a [Crash], a [Ret] or a possibly-crashing
      call ([Coalesced_fence]). Crash points are the model's only
      durability-observable events, and pstate write-back snapshots are
      taken at flush time, so deferring the commit to the later fence
      leaves every crash image bit-identical — the epoch view of Bentō;
    - a [pmem_persist] call site where both conditions hold at once
      ([Covered_persist]).

    Soundness rests on two independent analyses that must {e both}
    approve a deletion:

    + an observed replay of the static checker's own transfer functions
      over its converged abstract states ({!Cache.static_observed} —
      Andersen is shared with repair through the versioned cache): the
      instruction must be the {e identity} on every state the checker
      visits, which pins the checker's least fixpoint and hence the
      static bug reports;
    + a strict intraprocedural must-analysis over cache lines
      (clean / pending / write-pending-queue flag) with pessimistic
      entry assumptions and exact line resolution restricted to
      single-instance objects (the PM region and globals): the deleted
      operation is a dynamic no-op on every concrete execution, so
      crash-image sweeps cannot change verdict.

    As a belt-and-braces guarantee, the engine's [opt-verify] pass
    ({!Engine.opt_passes}) re-checks the rewritten program and
    {e reverts the whole rewrite} if the static reports are not
    identical to the input's. *)

open Hippo_pmir
open Hippo_pmcheck

type rule =
  | Covered_flush
  | Dominated_fence
  | Coalesced_fence
  | Covered_persist
  | Volatile_flush

val rule_name : rule -> string

type removal = {
  r_iid : Iid.t;
  r_loc : Loc.t;
  r_func : string;
  r_what : string;  (** rendered instruction, for logs *)
  r_rule : rule;
}

val pp_removal : Format.formatter -> removal -> unit

type analysis = {
  a_bugs : Report.bug list;  (** static reports on the input (baseline) *)
  a_removals : removal list;
  a_checker : Hippo_staticcheck.Checker.stats;
}

(** Analyse only — no rewrite. Uses (and feeds) [cache] so Andersen and
    the static result are shared with repair passes over the same
    program version. *)
val analyze :
  ?cache:Cache.t -> ?entries:string list -> Program.t -> analysis

(** Delete the given removals ([Func.map_instrs] returning []);
    validates the result. *)
val rewrite : Program.t -> removal list -> Program.t

(** Sorted [Report.to_line] rendering, the report-identity criterion. *)
val reports_equal : Report.bug list -> Report.bug list -> bool

(** The optimizer pipeline's result, built by [opt-verify]. *)
type outcome = {
  o_prog : Program.t;  (** optimized program; the input when reverted *)
  o_removals : removal list;  (** applied removals; [[]] when reverted *)
  o_candidates : int;  (** removals the analysis proposed *)
  o_before : Hippo_perfmodel.Timed.static_counts;
  o_after : Hippo_perfmodel.Timed.static_counts;
  o_bugs : Report.bug list;  (** static reports before *)
  o_residual : Report.bug list;  (** static reports after *)
  o_report_equal : bool;
  o_reverted : bool;  (** reports drifted; the input program was kept *)
}

(** [crash_verdicts_identical ~setup ~checker ~checker_args orig opt]
    sweeps both programs over every crash point (crash points are
    [Crash] instructions, which the optimizer never touches, so the
    verdict lists align positionally) and compares the verdict lists
    structurally. The gauntlet's dynamic do-no-harm check. *)
val crash_verdicts_identical :
  ?jobs:int ->
  setup:(string * int list) list ->
  checker:string ->
  checker_args:int list ->
  Program.t ->
  Program.t ->
  bool

val pp_outcome : Format.formatter -> outcome -> unit
