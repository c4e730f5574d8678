(** Post-repair validation (§6.1's methodology).

    Two executable counterparts of the paper's guarantees:

    - {e effectiveness}: re-running the bug finder on the repaired program
      under the same workload reports zero durability bugs;
    - {e do no harm}: on the bug-free execution the repaired program is
      observationally identical to the original — same emitted outputs,
      same final working PM contents. *)

open Hippo_pmir
open Hippo_pmcheck

type outcome = {
  residual_bugs : Report.bug list;
  outputs_match : bool;
  pm_working_match : bool;
  crash_consistent_improved : bool option;
      (** set by callers that also run crash simulation *)
}

val harm_free : outcome -> bool
val effective : outcome -> bool

(** [check ~jobs ~workload ~config ~original ~repaired] replays the
    workload on both programs and compares. [jobs > 1] runs the two
    executions on separate domains (they are independent interpreter
    instances); the outcome is identical to the serial run. A workload
    that stops at a crash point ({!Interp.Stopped_at_crash}) skips the
    implicit at-exit check: the run never exited, so at-exit reports
    would be phantom residual bugs. *)
val check :
  jobs:int ->
  workload:(Interp.t -> unit) ->
  config:Interp.config ->
  original:Program.t ->
  repaired:Program.t ->
  outcome

type crash_report = {
  original_consistent : bool;
  repaired_consistent : bool;
  original_stats : Hippo_pmcheck.Crashsim.stats;
  repaired_stats : Hippo_pmcheck.Crashsim.stats;
}

(** The repair turned a crash-inconsistent program consistent. *)
val crash_improved : crash_report -> bool

(** [check_crash_consistency ~config ~setup ~checker ~checker_args
    ~original ~repaired ()] sweeps every crash point of both programs
    (single-pass) and reports whether each recovers at all of
    them. The sweeps share one memo table keyed under the original's
    signature — sound because a harm-free repair preserves working-image
    semantics, so the two checkers agree on every image; durable images
    the repair leaves unchanged are recovered once, not twice. [memo]
    extends the sharing across calls (e.g. candidate repairs of one
    program). *)
val check_crash_consistency :
  ?jobs:int ->
  ?memo:Hippo_pmcheck.Crashsim.Memo.t ->
  config:Interp.config ->
  setup:(string * int list) list ->
  checker:string ->
  checker_args:int list ->
  original:Program.t ->
  repaired:Program.t ->
  unit ->
  crash_report

(** Fold a crash report into an outcome, setting
    [crash_consistent_improved] to whether the {e repaired} program
    recovers at every crash point. *)
val with_crash_report : outcome -> crash_report -> outcome

val pp : Format.formatter -> outcome -> unit
