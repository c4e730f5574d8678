(** Post-repair validation (§6.1's methodology).

    Two checks, both executable counterparts of the paper's guarantees:

    - {e effectiveness}: re-running the bug finder on the repaired program
      under the same workload reports zero durability bugs;
    - {e do no harm}: on the bug-free execution, the repaired program is
      observationally identical to the original — same emitted outputs,
      same return values, same final working PM contents. Flush and fence
      insertion must not change program state (paper §4.2 definitions);
      this check would catch any violation. *)

open Hippo_pmir
open Hippo_pmcheck
module Pool = Hippo_parallel.Pool

type outcome = {
  residual_bugs : Report.bug list;
  outputs_match : bool;
  pm_working_match : bool;
  crash_consistent_improved : bool option;
      (** set by callers that also run crash simulation *)
}

let harm_free o = o.outputs_match && o.pm_working_match

let effective o = o.residual_bugs = []

let check ~jobs ~(workload : Interp.t -> unit) ~(config : Interp.config)
    ~(original : Program.t) ~(repaired : Program.t) : outcome =
  (* Everything this check compares — bugs, outputs, working images — is
     identical with tracing off (seq numbers advance either way), so the
     two full workload runs skip event materialization. *)
  let config = { config with Interp.trace = false } in
  let run prog =
    let t = Interp.create config prog in
    let crashed =
      try
        workload t;
        false
      with Interp.Stopped_at_crash -> true
    in
    (* A run that stopped at a crash point never reaches program exit: the
       interpreter is mid-transaction, and charging the implicit at-exit
       crash point would report stores the program had no chance to
       persist yet — phantom residual bugs on crash workloads. *)
    if not crashed then Interp.exit_check t;
    t
  in
  let t0, t1 =
    if jobs > 1 then
      (* the two executions are independent: one worker domain runs the
         original while this domain runs the repaired program *)
      match Pool.run ~domains:2 (fun p -> Pool.map p run [ original; repaired ]) with
      | [ t0; t1 ] -> (t0, t1)
      | _ -> assert false
    else (run original, run repaired)
  in
  {
    residual_bugs = Interp.bugs t1;
    outputs_match = Interp.output t0 = Interp.output t1;
    pm_working_match =
      Bytes.equal
        (Mem.working_image (Interp.mem t0))
        (Mem.working_image (Interp.mem t1));
    crash_consistent_improved = None;
  }

type crash_report = {
  original_consistent : bool;
  repaired_consistent : bool;
  original_stats : Crashsim.stats;
  repaired_stats : Crashsim.stats;
}

let crash_improved r = r.repaired_consistent && not r.original_consistent

(** Crash-simulation counterpart of {!check}: sweep every crash point of
    both programs and compare. The two single-pass sweeps share one memo
    under the original's signature — sound because a harm-free repair
    preserves working-image semantics, so the two checkers agree on every
    image; durable images the repair leaves unchanged (most of them) are
    then recovered once, not twice. *)
let check_crash_consistency ?(jobs = 1) ?memo
    ~(config : Interp.config) ~setup ~checker ~checker_args
    ~(original : Program.t) ~(repaired : Program.t) () : crash_report =
  let memo = match memo with Some m -> m | None -> Crashsim.Memo.create () in
  let memo_sig = Crashsim.program_sig original in
  let sweep prog =
    Crashsim.sweep_with_stats ~config ~jobs ~memo ~memo_sig prog
      ~setup ~checker ~checker_args
  in
  let vo, original_stats = sweep original in
  let vr, repaired_stats = sweep repaired in
  {
    original_consistent = List.for_all Crashsim.consistent vo;
    repaired_consistent = List.for_all Crashsim.consistent vr;
    original_stats;
    repaired_stats;
  }

(** Fold a crash report into an outcome: the repaired program recovers at
    every crash point. *)
let with_crash_report (o : outcome) (r : crash_report) =
  { o with crash_consistent_improved = Some r.repaired_consistent }

let pp ppf o =
  Fmt.pf ppf "residual bugs: %d; outputs %s; PM state %s"
    (List.length o.residual_bugs)
    (if o.outputs_match then "match" else "DIFFER")
    (if o.pm_working_match then "match" else "DIFFERS")
