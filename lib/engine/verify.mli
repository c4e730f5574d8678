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
}

val harm_free : outcome -> bool
val effective : outcome -> bool

(** [check ~jobs ~workload ~config ~original ~repaired] replays the
    workload on both programs and compares. [jobs > 1] runs the two
    executions on separate domains (they are independent interpreter
    instances); the outcome is identical to the serial run. Each run
    goes through {!Machine.run_workload}, so a workload that stops at a
    crash point gets no at-exit check. *)
val check :
  jobs:int ->
  workload:(Machine.t -> unit) ->
  config:Machine.config ->
  original:Program.t ->
  repaired:Program.t ->
  outcome

val pp : Format.formatter -> outcome -> unit
