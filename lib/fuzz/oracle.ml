open Hippo_pmir
open Hippo_pmcheck
module Driver = Hippo_core.Driver
module Verify = Hippo_engine.Verify
module Checker = Hippo_staticcheck.Checker
module Adapter = Hippo_staticcheck.Adapter

type violation = { oracle : string; detail : string }

type outcome = {
  edges : int list;
  verdict : string;
  violations : violation list;
  memo_hits : int;
  memo_misses : int;
}

(* Generated programs touch at most a few hundred PM bytes. The small
   segments also fix where an overrunning program traps, so fuzz verdicts
   depend on them. *)
let machine_config =
  {
    Machine.default_config with
    fuel = 2_000_000;
    vol_size = 1 lsl 12;
    stack_size = 1 lsl 12;
    global_size = 1 lsl 8;
    pm_size = 1 lsl 12;
  }

let pp_bugs ppf bugs =
  List.iter (fun b -> Fmt.pf ppf "  %a@." Report.pp_bug b) bugs

let bucket n = if n = 0 then "0" else if n = 1 then "1" else if n <= 3 then "few" else "many"

(* Blocks observed to execute, recovered from the hashed edge set: every
   potential (func, block, dest) edge of the program is re-hashed and
   tested for membership in the run's marked set. Hash collisions can
   only add blocks, which is harmless for mutation biasing. *)
let hot_blocks prog edges =
  let marked = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace marked e ()) edges;
  let hot = Hashtbl.create 64 in
  let add f b = Hashtbl.replace hot (f, b) () in
  let entry_label fn =
    match Program.find prog fn with
    | Some f -> (
        match Func.blocks f with
        | b :: _ -> Some b.Func.label
        | [] -> None)
    | None -> None
  in
  (match entry_label "main" with Some l -> add "main" l | None -> ());
  List.iter
    (fun f ->
      let fname = Func.name f in
      List.iter
        (fun (b : Func.block) ->
          let block = b.Func.label in
          let mem dest = Hashtbl.mem marked (Coverage.edge ~func:fname ~block ~dest) in
          let taken dest =
            add fname block;
            add fname dest
          in
          List.iter
            (fun i ->
              match Instr.op i with
              | Instr.Br { target } -> if mem target then taken target
              | Instr.Condbr { if_true; if_false; _ } ->
                  if mem if_true then taken if_true;
                  if mem if_false then taken if_false
              | Instr.Call { callee; _ } ->
                  if mem callee then begin
                    add fname block;
                    match entry_label callee with
                    | Some l -> add callee l
                    | None -> ()
                  end
              | Instr.Crash -> if mem "!crash" then add fname block
              | _ -> ())
            b.instrs)
        (Func.blocks f))
    (Program.funcs prog);
  Hashtbl.fold (fun k () acc -> k :: acc) hot [] |> List.sort compare

let coverage_edges prog =
  let cov = Coverage.create () in
  let config = { machine_config with coverage = Some cov; trace = false } in
  let _t, _ret = Compile.run ~config prog ~entry:"main" ~args:[] in
  Coverage.to_list cov

let pp_verdicts ppf vs =
  List.iter
    (fun (v : Crashsim.verdict) ->
      Fmt.pf ppf "  crash %d: pessimistic=%b lucky=%b@." v.crash_index
        v.pessimistic_ok v.lucky_ok)
    vs

let evaluate_exn prog =
  let violations = ref [] in
  let flag oracle detail = violations := { oracle; detail } :: !violations in
  (* dynamic run: coverage + bug reports. Bug collection does not need the
     event trace (seq numbers advance either way), so leave it off. *)
  let cov = Coverage.create () in
  let config = { machine_config with coverage = Some cov; trace = false } in
  let t, _ret = Compile.run ~config prog ~entry:"main" ~args:[] in
  let dynamic = Machine.bugs t in
  let edges = Coverage.to_list cov in
  (* O1: every dynamic site must be covered by a static report *)
  let static_ = (Checker.check ~entries:[ "main" ] prog).Checker.bugs in
  let cmp = Adapter.compare_reports ~static_ ~dynamic in
  if cmp.Adapter.missed <> [] then
    flag "static_dynamic"
      (Fmt.str "dynamic bugs with no covering static report:@.%a" pp_bugs
         cmp.Adapter.missed);
  (* O2: repair round-trip, when there is anything to repair *)
  let repaired =
    if dynamic = [] then None
    else begin
      let r =
        Driver.repair
          ~options:{ Driver.default_options with jobs = 1 }
          ~name:"fuzz" ~workload:Gen.workload ~config:machine_config prog
      in
      let v = r.Driver.verification in
      let ok = Verify.effective v && Verify.harm_free v in
      if not ok then
        flag "repair_roundtrip" (Fmt.str "%a" Verify.pp v);
      Some (r.Driver.repaired, ok)
    end
  in
  (* crash-sweep oracles (crash family only) *)
  let memo = Crashsim.Memo.create () in
  let crash_component =
    if not (Gen.has_checker prog) then "-"
    else begin
      let sweep ?memo_sig p =
        Crashsim.sweep_with_stats ~config:machine_config ~jobs:1 ~memo
          ?memo_sig p ~setup:Gen.setup ~checker:Gen.checker_name
          ~checker_args:[]
      in
      let verdicts, _stats = sweep prog in
      (* O3a: single-pass and replay sweeps must agree *)
      let replay =
        Crashsim.replay_sweep ~config:machine_config ~jobs:1 prog
          ~setup:Gen.setup ~checker:Gen.checker_name ~checker_args:[]
      in
      if verdicts <> replay then
        flag "sweep_differential"
          (Fmt.str "single-pass:@.%a@.replay:@.%a" pp_verdicts verdicts
             pp_verdicts replay);
      (* O3b: the repair must not regress any recovery verdict *)
      (match repaired with
      | Some (rep, harm_free) when verdicts <> [] ->
          let memo_sig =
            (* sharing the memo across programs is sound only when the
               repair preserved working-image semantics *)
            if harm_free then Some (Crashsim.program_sig prog) else None
          in
          let rep_verdicts, _ = sweep ?memo_sig rep in
          (* harm = a crash point where every post-crash image recovered
             before the repair but some image fails after it. A point
             that was already inconsistent (some original image failed)
             is fair game: inserting a flush legitimately shifts which
             images occur, and a durability repair cannot be asked to
             fix a pre-existing atomicity bug. *)
          let consistent (v : Crashsim.verdict) =
            v.pessimistic_ok && v.lucky_ok
          in
          let regressed =
            List.length rep_verdicts <> List.length verdicts
            || List.exists2
                 (fun o r -> consistent o && not (consistent r))
                 verdicts rep_verdicts
          in
          if regressed then
            flag "crash_harm"
              (Fmt.str "original:@.%a@.repaired:@.%a" pp_verdicts verdicts
                 pp_verdicts rep_verdicts)
      | _ -> ());
      if verdicts = [] then "nocrash"
      else if List.for_all Crashsim.consistent verdicts then "cc"
      else "incc"
    end
  in
  let verdict =
    let viol =
      match !violations with
      | [] -> ""
      | vs ->
          ";viol:"
          ^ String.concat "+"
              (List.sort_uniq compare (List.map (fun v -> v.oracle) vs))
    in
    Fmt.str "dyn=%s;static=%s;crash=%s%s"
      (bucket (List.length dynamic))
      (bucket (List.length static_))
      crash_component viol
  in
  {
    edges;
    verdict;
    violations = List.rev !violations;
    memo_hits = Crashsim.Memo.hits memo;
    memo_misses = Crashsim.Memo.misses memo;
  }

let evaluate prog =
  try evaluate_exn prog
  with e ->
    {
      edges = [];
      verdict = "exception";
      violations =
        [
          {
            oracle = "pipeline_exception";
            detail = Printexc.to_string e;
          };
        ];
      memo_hits = 0;
      memo_misses = 0;
    }

let fails ~oracle prog =
  List.exists (fun v -> v.oracle = oracle) (evaluate prog).violations
