(* The paper-reproduction harness: regenerates every table and figure of
   the paper's evaluation (see DESIGN.md's per-experiment index). The
   repository's performance scoreboard is perfsuite/ (BENCHMARK.json,
   `sh perfsuite/run.sh`), not this binary.

     bench/main.exe                 — run the default sweep (quick params)
     bench/main.exe --full          — paper-scale parameters for Fig. 4
     bench/main.exe fig1            — §3 bug-study table
     bench/main.exe table_effectiveness — §6.1 (all 23 bugs fixed)
     bench/main.exe table_static    — static checker vs dynamic ground truth
     bench/main.exe table_heuristics    — §6.1 (Full-AA == Trace-AA)
     bench/main.exe fig3            — §6.2 accuracy vs developer fixes
     bench/main.exe fig4            — §6.3 Redis YCSB throughput
     bench/main.exe fix_stats       — §6.3 fix statistics
     bench/main.exe fig5            — §6.4 offline overhead
     bench/main.exe code_size       — §6.4 code-size impact
     bench/main.exe ablate_reuse    — A1: clone reuse on/off
     bench/main.exe ablate_reduction— A2: fix reduction on/off
     bench/main.exe ablate_heuristic— A3: cost-model robustness
     bench/main.exe table_opt       — flush/fence optimizer over every
                                      repaired corpus and app subject:
                                      static sites removed, report
                                      identity, perfmodel cost deltas and
                                      the P-CLHT crash-verdict gauntlet

   table_opt is not part of the default sweep.

   `--jobs N` sets the domain budget for every corpus sweep (default:
   HIPPO_JOBS or the machine's recommended domain count). Every output
   but fig5's wall-clock columns is byte-identical at any --jobs; the
   runtest rules in bench/dune pin all of them except fig4 (the slowest)
   against bench/paper.expected. An unknown experiment or flag, or a
   malformed --jobs value, prints usage to stderr and exits 2 before
   anything runs. *)

open Cmdliner
open Hippo_pmcheck
open Hippo_core
open Hippo_pmdk_mini
open Hippo_apps

let section title = Fmt.pr "@.=== %s ===@." title

module Sweep = Hippo_bugstudy.Sweep

(* Domain budget for every corpus sweep; set by --jobs. *)
let jobs = ref 1

(* ------------------------------------------------------------------ *)
(* E1 — Fig. 1: the 26-bug study *)

let fig1 () =
  section "Fig. 1 — study of 26 PMDK durability bugs (paper: 13 / 28 / 66)";
  List.iter
    (fun r -> Fmt.pr "  %a@." Hippo_bugstudy.Dataset.pp_row r)
    (Hippo_bugstudy.Dataset.figure1 ());
  let n, total = Hippo_bugstudy.Dataset.interprocedural_fraction () in
  Fmt.pr "  interprocedural developer fixes: %d/%d (%d%%) (paper: 16/26, 62%%)@."
    n total (100 * n / total)

(* ------------------------------------------------------------------ *)
(* Corpus plumbing shared by E2, E7 and table_opt *)

let repair_case (case : Case.t) =
  Driver.repair ~name:case.Case.id ~workload:case.Case.workload
    (Lazy.force case.Case.program)

(* E2 — §6.1 effectiveness *)

let table_effectiveness () =
  section "§6.1 — effectiveness: fix all 23 reproduced bugs";
  let all_ok = ref true in
  let pmdk_ok = ref 0 in
  let pmdk_results = Sweep.corpus ~jobs:!jobs Bugs.all in
  List.iter
    (fun (_, r) ->
      let ok =
        r.Driver.bugs <> []
        && Verify.effective r.Driver.verification
        && Verify.harm_free r.Driver.verification
      in
      if ok then incr pmdk_ok else all_ok := false)
    pmdk_results;
  Fmt.pr "  %-22s bugs: %2d (expected 11)   repaired+verified: %s@."
    "PMDK (unit tests)" !pmdk_ok
    (if !pmdk_ok = 11 then "yes" else "NO");
  let app_row label case expected ~count =
    let r = repair_case case in
    let n = count r in
    let ok =
      Verify.effective r.Driver.verification
      && Verify.harm_free r.Driver.verification
    in
    if (not ok) || n <> expected then all_ok := false;
    Fmt.pr "  %-22s bugs: %2d (expected %2d)   repaired+verified: %s@." label
      n expected
      (if ok then "yes" else "NO")
  in
  app_row "P-CLHT (RECIPE)" (List.hd Pclht.cases) 2 ~count:(fun r ->
      Case.static_bug_sites r.Driver.bugs);
  app_row "memcached-pm" (List.hd Memcached_mini.cases) 10 ~count:(fun r ->
      List.length (Report.dedup r.Driver.bugs));
  Fmt.pr "  total: %d bugs (paper: 23); all repaired with zero residual: %s@."
    (!pmdk_ok + 12)
    (if !all_ok && !pmdk_ok = 11 then "yes" else "NO")

(* E3 — §6.1 heuristic equivalence *)

let table_heuristics () =
  section "§6.1 — Full-AA vs Trace-AA produce identical fixes";
  let all_cases =
    Bugs.all @ [ List.hd Pclht.cases; List.hd Memcached_mini.cases ]
  in
  let identical = ref 0 in
  let sweep_with oracle =
    Sweep.corpus ~options:{ Driver.default_options with oracle } ~jobs:!jobs
      all_cases
  in
  let sig_of (_, (r : Driver.result)) =
    List.sort String.compare (List.map Fix.to_string r.Driver.plan.Fix.fixes)
  in
  List.iter2
    (fun ((case, _) as full) trace ->
      let same = sig_of full = sig_of trace in
      if same then incr identical;
      Fmt.pr "  %-14s %s@." case.Case.id
        (if same then "identical" else "DIFFERENT"))
    (sweep_with Driver.Full_aa)
    (sweep_with Driver.Trace_aa);
  Fmt.pr "  %d/%d subjects with identical fix sets (paper: all)@." !identical
    (List.length all_cases)

(* E4 — Fig. 3: accuracy vs developer fixes *)

let fig3 () =
  section "Fig. 3 — Hippocrates fixes vs PMDK developer fixes";
  Fmt.pr "  %-7s %-40s %-42s %s@." "issue" "Hippocrates fix" "developer fix"
    "comparison";
  let identical = ref 0 and equivalent = ref 0 in
  List.iter
    (fun ((case : Case.t), (r : Driver.result)) ->
      let shape =
        match
          List.find_opt
            (fun (_, s) -> Case.shape_matches case.Case.expected_shape s)
            r.Driver.plan.Fix.per_bug
        with
        | Some (_, s) -> Fix.shape_to_string s
        | None -> "(unexpected)"
      in
      let comparison =
        match case.Case.dev_fix with
        | Some Case.Dev_inter_flush_fence ->
            incr identical;
            "functionally identical"
        | Some Case.Dev_portable_flush ->
            incr equivalent;
            "equivalent; PMDK's fix is more portable"
        | None -> "-"
      in
      Fmt.pr "  #%-6s %-40s %-42s %s@."
        (match case.Case.issue with Some n -> string_of_int n | None -> "?")
        shape
        (Fmt.str "%a" Case.pp_dev_fix case.Case.dev_fix)
        comparison)
    (Sweep.corpus ~jobs:!jobs Bugs.all);
  Fmt.pr
    "  functionally identical: %d/11 (paper: 8/11); equivalent: %d/11 \
     (paper: 3/11)@."
    !identical !equivalent

(* ------------------------------------------------------------------ *)
(* E5 — Fig. 4: Redis YCSB throughput *)

let fig4 ~full () =
  section
    (if full then
       "Fig. 4 — Redis YCSB throughput (paper parameters: 10k/10k, 20 trials)"
     else "Fig. 4 — Redis YCSB throughput (quick parameters)");
  let v = Redis_bench.repair_variants () in
  Fmt.pr "  repair: %d bugs, %d fixes (%d interprocedural)@."
    (List.length v.Redis_bench.full_result.Driver.bugs)
    (List.length v.Redis_bench.full_result.Driver.plan.Fix.fixes)
    (Fix.count_hoisted v.Redis_bench.full_result.Driver.plan);
  List.iter
    (fun (name, prog) ->
      Fmt.pr "  %-14s residual bugs: %d@." name
        (List.length (Redis_bench.residual_bugs prog)))
    [
      ("Redis-pm", v.Redis_bench.manual);
      ("Redis_H-intra", v.Redis_bench.h_intra);
      ("Redis_H-full", v.Redis_bench.h_full);
    ];
  let trials = if full then 20 else 5 in
  let record_count = if full then 10_000 else 2_000 in
  let op_count = if full then 10_000 else 2_000 in
  Fmt.pr "  simulated kops/s, %d trials, %d records, %d ops:@." trials
    record_count op_count;
  let rows = Redis_bench.figure4 ~trials ~record_count ~op_count v in
  List.iter (fun r -> Fmt.pr "    %a@." Redis_bench.pp_row r) rows;
  let load = List.hd rows in
  let open Hippo_perfmodel in
  Fmt.pr
    "  Load: H-full/Redis-pm = %.2fx (paper: ~1.07x); H-full/H-intra range: \
     %.1fx-%.1fx (paper: 2.4x-11.7x)@."
    (load.Redis_bench.full.Stats.mean /. load.Redis_bench.manual_pm.Stats.mean)
    (List.fold_left
       (fun acc r ->
         min acc
           (r.Redis_bench.full.Stats.mean /. r.Redis_bench.intra.Stats.mean))
       infinity rows)
    (List.fold_left
       (fun acc r ->
         max acc
           (r.Redis_bench.full.Stats.mean /. r.Redis_bench.intra.Stats.mean))
       0.0 rows);
  v

(* E6 — §6.3 fix statistics *)

let fix_stats ?variants () =
  section "§6.3 — fix statistics for the Redis repair";
  let v =
    match variants with Some v -> v | None -> Redis_bench.repair_variants ()
  in
  let plan = v.Redis_bench.full_result.Driver.plan in
  let hoists =
    List.filter_map
      (function Fix.Hoist h -> Some h | Fix.Intra _ -> None)
      plan.Fix.fixes
  in
  let depth d = List.length (List.filter (fun h -> h.Fix.depth = d) hoists) in
  Fmt.pr
    "  fixes: %d total, %d intraprocedural, %d interprocedural (paper: 50 \
     total, 12 inter)@."
    (List.length plan.Fix.fixes)
    (Fix.count_intra plan) (List.length hoists);
  Fmt.pr "  hoist depths: %d at 1 frame, %d at 2 frames (paper: 10 and 2)@."
    (depth 1) (depth 2);
  Fmt.pr "  fix reduction eliminated %d raw fixes@."
    v.Redis_bench.full_result.Driver.reduce_eliminated

(* ------------------------------------------------------------------ *)
(* E7 — Fig. 5: offline overhead *)

let fig5 () =
  section "Fig. 5 — offline overhead of Hippocrates";
  Fmt.pr "  %-22s %10s %13s %11s %10s@." "target" "IR instrs" "trace events"
    "time" "peak heap";
  let show name (r : Driver.result) =
    Fmt.pr "  %-22s %10d %13d %10.3fs %8dMB@." name r.Driver.input_instrs
      r.Driver.trace_events r.Driver.time_s
      (r.Driver.peak_heap_bytes / (1024 * 1024))
  in
  let pmdk_results = List.map snd (Sweep.corpus ~jobs:!jobs Bugs.all) in
  let instrs, events, time, mem =
    List.fold_left
      (fun (instrs, events, time, mem) (r : Driver.result) ->
        ( instrs + r.Driver.input_instrs,
          events + r.Driver.trace_events,
          time +. r.Driver.time_s,
          max mem r.Driver.peak_heap_bytes ))
      (0, 0, 0.0, 0) pmdk_results
  in
  Fmt.pr "  %-22s %10d %13d %10.3fs %8dMB@." "PMDK (11 unit tests)" instrs
    events time
    (mem / (1024 * 1024));
  show "P-CLHT (RECIPE)" (repair_case (List.hd Pclht.cases));
  show "memcached-pm" (repair_case (List.hd Memcached_mini.cases));
  let redis =
    Driver.repair ~name:"redis" ~workload:Redis_bench.repair_workload
      (Redis_mini.build Redis_mini.Flush_free)
  in
  show "Redis (flush-free)" redis;
  Fmt.pr
    "  (paper: 2s-5m09s, 147-870MB on 37-203 KLOC of C; same shape — the \
     largest target dominates)@."

(* E8 — §6.4 code-size impact *)

let code_size ?variants () =
  section "§6.4 — code-size impact of persistent subprograms (Redis)";
  let v =
    match variants with Some v -> v | None -> Redis_bench.repair_variants ()
  in
  let r = v.Redis_bench.full_result in
  let added = r.Driver.output_instrs - r.Driver.input_instrs in
  Fmt.pr "  IR instructions: %d -> %d (+%d, +%.3f%%)@." r.Driver.input_instrs
    r.Driver.output_instrs added
    (100.0 *. float_of_int added /. float_of_int r.Driver.input_instrs);
  Fmt.pr
    "  persistent clones created: %d (paper: +105 IR lines, +0.013%%, with \
     clone reuse)@."
    r.Driver.apply_stats.Apply.clones_created

(* ------------------------------------------------------------------ *)
(* A1 — ablation: clone reuse *)

let ablate_reuse () =
  section "A1 — persistent-subprogram clone reuse (on vs off)";
  let prog = Redis_mini.build Redis_mini.Flush_free in
  let run reuse =
    Driver.repair
      ~options:{ Driver.default_options with clone_reuse = reuse }
      ~name:"redis" ~workload:Redis_bench.repair_workload prog
  in
  let on = run true and off = run false in
  let fmt (r : Driver.result) =
    Fmt.str "instrs %d->%d (clones %d)" r.Driver.input_instrs
      r.Driver.output_instrs r.Driver.apply_stats.Apply.clones_created
  in
  Fmt.pr "  reuse on : %s@." (fmt on);
  Fmt.pr "  reuse off: %s@." (fmt off);
  Fmt.pr "  both verified clean: %b / %b@."
    (Verify.effective on.Driver.verification)
    (Verify.effective off.Driver.verification)

(* A2 — ablation: fix reduction *)

let ablate_reduction () =
  section "A2 — fix reduction (Phase 2) on vs off";
  let cases = Bugs.all @ [ List.hd Pclht.cases; List.hd Memcached_mini.cases ] in
  let ons = Sweep.corpus ~jobs:!jobs cases in
  let offs =
    Sweep.corpus
      ~options:{ Driver.default_options with reduction = false }
      ~jobs:!jobs cases
  in
  List.iter2
    (fun ((case : Case.t), (on : Driver.result)) (_, (off : Driver.result)) ->
      Fmt.pr
        "  %-14s raw fixes: %2d; with reduction: %2d applied; without: %2d \
         applied; both clean: %b@."
        case.Case.id on.Driver.raw_fix_count
        (List.length on.Driver.plan.Fix.fixes)
        (List.length off.Driver.plan.Fix.fixes)
        (Verify.effective on.Driver.verification
        && Verify.effective off.Driver.verification))
    ons offs

(* A3 — ablation: cost-model robustness *)

let ablate_heuristic () =
  section "A3 — Fig. 4 conclusions under different cost models";
  let v = Redis_bench.repair_variants () in
  let spec =
    {
      (Hippo_ycsb.Workload.default_spec Hippo_ycsb.Workload.A) with
      record_count = 1000;
      op_count = 1000;
    }
  in
  List.iter
    (fun (label, cost) ->
      let tput prog =
        Hippo_perfmodel.Timed.throughput_kops
          (Redis_bench.trial ~cost prog spec ~seed:1)
      in
      let ti = tput v.Redis_bench.h_intra
      and tm = tput v.Redis_bench.manual
      and tf = tput v.Redis_bench.h_full in
      Fmt.pr
        "  %-16s H-intra %7.0f  Redis-pm %7.0f  H-full %7.0f  (full/intra \
         %.2fx, full/pm %.2fx)@."
        label ti tm tf (tf /. ti) (tf /. tm))
    [
      ("default", Cost.default);
      ("fence-heavy", Cost.fence_heavy);
      ("cheap-vol-flush", Cost.cheap_vol_flush);
    ];
  Fmt.pr
    "  (the interprocedural advantage must survive fence-heavy constants \
     and shrink when volatile flushes are free)@."

(* ------------------------------------------------------------------ *)
(* E8 — static checker: detection vs dynamic ground truth *)

module SAdapter = Hippo_staticcheck.Adapter

let dynamic_bugs_of (case : Case.t) =
  let prog = Lazy.force case.Case.program in
  let t = Interp.create { Interp.default_config with Interp.trace = true } prog in
  (try case.Case.workload t with Interp.Stopped_at_crash -> ());
  Interp.exit_check t;
  (prog, Interp.bugs t)

let table_static () =
  section
    "static checker — detection vs dynamic ground truth (23 corpus bugs)";
  let compare_case (case : Case.t) =
    let prog, dyn = dynamic_bugs_of case in
    let static_ =
      (Hippo_staticcheck.Checker.check prog).Hippo_staticcheck.Checker.bugs
    in
    (dyn, static_, SAdapter.compare_reports ~static_ ~dynamic:dyn)
  in
  let print_misses (c : SAdapter.comparison) =
    List.iter
      (fun b -> Fmt.pr "      MISSED %a@." Report.pp_bug b)
      c.SAdapter.missed;
    List.iter
      (fun (b : Report.bug) ->
        Fmt.pr "      extra  %a via %s@." Report.pp_bug b
          (Trace.stack_to_string b.Report.store.Report.stack))
      c.SAdapter.extra
  in
  (* PMDK: one bug per unit test; detected = every dynamic site covered *)
  let pmdk_det = ref 0 and pmdk_fp = ref 0 in
  List.iter
    (fun (case : Case.t) ->
      let dyn, _, c = compare_case case in
      let detected = dyn <> [] && c.SAdapter.missed = [] in
      if detected then incr pmdk_det;
      pmdk_fp := !pmdk_fp + List.length c.SAdapter.extra;
      Fmt.pr "  %-12s dynamic sites: %d  matched: %d  missed: %d  extra: %d%s@."
        case.Case.id
        (List.length c.SAdapter.matched + List.length c.SAdapter.missed)
        (List.length c.SAdapter.matched)
        (List.length c.SAdapter.missed)
        (List.length c.SAdapter.extra)
        (if detected then "" else "  NOT DETECTED");
      print_misses c)
    Bugs.all;
  (* the applications: unit = distinct (store, chain) dynamic site *)
  let app_row label case =
    let _, _, c = compare_case case in
    let dyn_sites = List.length c.SAdapter.matched + List.length c.SAdapter.missed in
    Fmt.pr "  %-12s dynamic sites: %d  matched: %d  missed: %d  extra: %d@."
      label dyn_sites
      (List.length c.SAdapter.matched)
      (List.length c.SAdapter.missed)
      (List.length c.SAdapter.extra);
    print_misses c;
    (List.length c.SAdapter.matched, dyn_sites, List.length c.SAdapter.extra)
  in
  let clht_tp, clht_n, clht_fp = app_row "P-CLHT" (List.hd Pclht.cases) in
  let mc_tp, mc_n, mc_fp = app_row "memcached-pm" (List.hd Memcached_mini.cases) in
  let detected = !pmdk_det + clht_tp + mc_tp in
  let total = 11 + clht_n + mc_n in
  Fmt.pr
    "  total detected: %d/%d (threshold: >= 20/23)   false positives: %d@."
    detected total
    (!pmdk_fp + clht_fp + mc_fp);
  Fmt.pr "  static repair closes the loop: %s@."
    (let ok =
       List.for_all
         (fun (case : Case.t) ->
           let r =
             Driver.repair ~detector:Driver.Static ~name:case.Case.id
               ~workload:case.Case.workload
               (Lazy.force case.Case.program)
           in
           Verify.effective r.Driver.verification
           && Verify.harm_free r.Driver.verification)
         Bugs.all
     in
     if ok then "zero residual dynamic bugs on all PMDK cases"
     else "RESIDUAL DYNAMIC BUGS REMAIN")

(* opt — the flush/fence optimizer: savings and do-no-harm ------------ *)

let clht_sweep_setup =
  [ ("clht_init", [ 4 ]) ]
  @ List.concat_map
      (fun k -> [ ("clht_put", [ k; k * 3 ]) ])
      (List.init 20 (fun k -> k + 1))
  @ [ ("clht_put", [ 3; 999 ]) ]

let table_opt () =
  section "opt — flush/fence optimizer over repaired corpus and app subjects";
  let module O = Hippo_engine.Optimize in
  let module Timed = Hippo_perfmodel.Timed in
  let sim_cost prog workload =
    let t =
      Interp.create
        {
          Interp.default_config with
          Interp.trace = false;
          cost = Some Cost.default;
        }
        prog
    in
    workload t;
    Interp.cost_ns t
  in
  (* one row per subject: the optimizer runs over the given (already
     repaired or manual) program; cost is the perfmodel's simulated ns
     for the subject's own workload, before and after *)
  let row name prog workload =
    let o = (Driver.optimize ~name prog).Driver.t_outcome in
    let cost0 = sim_cost prog workload in
    let cost1 = sim_cost o.O.o_prog workload in
    (name, o, cost0, cost1)
  in
  let corpus_rows =
    List.map
      (fun (c : Case.t) ->
        let r = repair_case c in
        row (c.Case.id ^ "/repaired") r.Driver.repaired c.Case.workload)
      (Bugs.all @ Pclht.cases @ Memcached_mini.cases)
  in
  let app_prog kind variant =
    match App.program kind variant with
    | Ok p -> p
    | Error e ->
        Fmt.failwith "table_opt (%s/%s): %s" (App.kind_to_string kind)
          (App.variant_to_string variant) e
  in
  let app_rows =
    [
      row "redis/manual" (app_prog App.Redis App.Manual)
        Redis_bench.repair_workload;
      row "redis/repaired" (app_prog App.Redis App.Repaired)
        Redis_bench.repair_workload;
      row "pclht/manual" (app_prog App.Pclht App.Manual) Pclht.workload;
      row "pclht/repaired" (app_prog App.Pclht App.Repaired) Pclht.workload;
    ]
  in
  let rows = corpus_rows @ app_rows in
  Fmt.pr "  %-18s %13s %13s %8s %7s %10s %10s %7s@." "subject" "flush/fence"
    "-> after" "removed" "static" "cost-ns" "-> after" "delta";
  List.iter
    (fun (name, (o : O.outcome), cost0, cost1) ->
      Fmt.pr "  %-18s %6d/%-6d %6d/%-6d %8d %7s %10.0f %10.0f %6.1f%%@." name
        o.O.o_before.Timed.flushes o.O.o_before.Timed.fences
        o.O.o_after.Timed.flushes o.O.o_after.Timed.fences
        (List.length o.O.o_removals)
        (if o.O.o_report_equal then "equal" else "DRIFT")
        cost0 cost1
        (100. *. (cost1 -. cost0) /. Float.max 1. cost0))
    rows;
  (* dynamic do-no-harm on the flagship subject: the repaired and
     optimized P-CLHT must give the same verdict at every crash point,
     at both worker widths *)
  let pclht_rep = app_prog App.Pclht App.Repaired in
  let pclht_opt =
    (Driver.optimize ~name:"pclht/repaired" pclht_rep).Driver.t_outcome.O.o_prog
  in
  let verdicts =
    List.map
      (fun jobs ->
        ( jobs,
          O.crash_verdicts_identical ~jobs ~setup:clht_sweep_setup
            ~checker:"clht_recover_check" ~checker_args:[] pclht_rep pclht_opt
        ))
      [ 1; 2 ]
  in
  List.iter
    (fun (jobs, ok) ->
      Fmt.pr "  pclht crash-sweep verdicts identical at jobs %d: %s@." jobs
        (if ok then "yes" else "NO"))
    verdicts;
  let total_removed =
    List.fold_left
      (fun acc (_, o, _, _) -> acc + List.length o.O.o_removals)
      0 rows
  in
  Fmt.pr "  total removed across %d subjects: %d@." (List.length rows)
    total_removed

(* ------------------------------------------------------------------ *)
(* Command line: [--full] [--jobs N] [EXPERIMENT...] *)

let full = ref false

let experiments =
  [
    ("fig1", fig1);
    ("table_effectiveness", table_effectiveness);
    ("table_static", table_static);
    ("table_heuristics", table_heuristics);
    ("fig3", fig3);
    ("fig4", fun () -> ignore (fig4 ~full:!full ()));
    ("fix_stats", fun () -> fix_stats ());
    ("fig5", fig5);
    ("code_size", fun () -> code_size ());
    ("ablate_reuse", ablate_reuse);
    ("ablate_reduction", ablate_reduction);
    ("ablate_heuristic", ablate_heuristic);
    ("table_opt", table_opt);
  ]

(* the default sweep: fix_stats and code_size reuse fig4's repairs *)
let run_all () =
  fig1 ();
  table_effectiveness ();
  table_static ();
  table_heuristics ();
  fig3 ();
  let v = fig4 ~full:!full () in
  fix_stats ~variants:v ();
  fig5 ();
  code_size ~variants:v ();
  ablate_reuse ();
  ablate_reduction ();
  ablate_heuristic ()

let main full_ jobs_ runs =
  full := full_;
  jobs := jobs_;
  match runs with [] -> run_all () | runs -> List.iter (fun run -> run ()) runs

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Fmt.str "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let cmd =
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Paper-scale parameters for Fig. 4.")
  in
  let jobs =
    Arg.(
      value
      & opt positive_int (Hippo_parallel.Pool.default_domains ())
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Domain budget for every corpus sweep. Defaults to \
                $(b,HIPPO_JOBS) when set, otherwise the machine's \
                recommended domain count.")
  in
  let runs =
    Arg.(
      value
      & pos_all (enum experiments) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiments to run, in order; none runs the default sweep.")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const main $ full $ jobs $ runs)

(* Every argument is checked before any experiment runs; a bad command
   line is a usage error, exit 2. *)
let () = match Cmd.eval_value cmd with Ok _ -> () | Error _ -> exit 2
