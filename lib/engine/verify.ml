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
}

let harm_free o = o.outputs_match && o.pm_working_match

let effective o = o.residual_bugs = []

let check ~jobs ~(workload : Machine.t -> unit) ~(config : Machine.config)
    ~(original : Program.t) ~(repaired : Program.t) : outcome =
  (* Everything this check compares — bugs, outputs, working images — is
     identical with tracing off (seq numbers advance either way), so the
     two full workload runs skip event materialization. *)
  let config = { config with Machine.trace = false } in
  let run prog =
    let t = Machine.create config prog in
    Machine.run_workload t workload;
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
    residual_bugs = Machine.bugs t1;
    outputs_match = Machine.output t0 = Machine.output t1;
    pm_working_match =
      Bytes.equal
        (Mem.working_image (Machine.mem t0))
        (Mem.working_image (Machine.mem t1));
  }

let pp ppf o =
  Fmt.pf ppf "residual bugs: %d; outputs %s; PM state %s"
    (List.length o.residual_bugs)
    (if o.outputs_match then "match" else "DIFFER")
    (if o.pm_working_match then "match" else "DIFFERS")
