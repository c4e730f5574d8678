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
     bench/main.exe table_main      — per-phase engine timing breakdown
                                      (ablation sweep, shared analysis cache)
     bench/main.exe table_par       — corpus-sweep wall-clock scaling over
                                      worker domains (jobs 1 vs 2 vs 4)
     bench/main.exe table_crash     — single-pass dedup crash sweep vs
                                      per-crash-point replay
     bench/main.exe table_fuzz      — coverage-guided fuzzing vs blind
                                      generation at equal exec counts
     bench/main.exe table_opt       — flush/fence optimizer over every
                                      repaired corpus and app subject:
                                      static sites removed, report
                                      identity, perfmodel cost deltas and
                                      the P-CLHT crash-verdict gauntlet
     bench/main.exe micro           — bechamel micro-benchmarks

   table_opt is not part of the default sweep.

   `--jobs N` sets the domain budget for every corpus sweep (default:
   HIPPO_JOBS or the machine's recommended domain count). `--jobs 1` is
   byte-identical to the historical serial harness. `--seed N` seeds the
   seed-threaded experiment (table_fuzz; default 0). An
   unknown experiment or flag, or a malformed --jobs/--seed value,
   prints usage to stderr and exits 2 before anything runs. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core
open Hippo_pmdk_mini
open Hippo_apps

let section title = Fmt.pr "@.=== %s ===@." title

module Sweep = Hippo_bugstudy.Sweep

(* Domain budget for every corpus sweep; set by --jobs. *)
let jobs = ref (Hippo_parallel.Pool.default_domains ())

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
(* Corpus plumbing shared by E2/E3/E4/E7 *)

let repair_case ?(options = Driver.default_options) ?cache (case : Case.t) =
  Driver.repair ~options ?cache ~name:case.Case.id
    ~workload:case.Case.workload
    (Lazy.force case.Case.program)

(* E2 — §6.1 effectiveness *)

let table_effectiveness () =
  section "§6.1 — effectiveness: fix all 23 reproduced bugs";
  let all_ok = ref true in
  let pmdk_ok = ref 0 in
  let pmdk_results, _cache = Sweep.corpus ~jobs:!jobs Bugs.all in
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
    fst
      (Sweep.corpus
         ~options:{ Driver.default_options with oracle }
         ~jobs:!jobs all_cases)
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
    (fst (Sweep.corpus ~jobs:!jobs Bugs.all));
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
  let pmdk_results = List.map snd (fst (Sweep.corpus ~jobs:!jobs Bugs.all)) in
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
  let ons, _ = Sweep.corpus ~jobs:!jobs cases in
  let offs, _ =
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
(* Bechamel micro-benchmarks: one per experiment pipeline *)

let micro () =
  section "bechamel micro-benchmarks (one per experiment pipeline)";
  let open Bechamel in
  let listing5 = Lazy.force (List.hd Bugs.all).Case.program in
  let text = Printer.to_string listing5 in
  let clht = Pclht.build () in
  let tests =
    [
      Test.make ~name:"fig1_aggregate"
        (Staged.stage (fun () -> Hippo_bugstudy.Dataset.figure1 ()));
      Test.make ~name:"pmir_parse"
        (Staged.stage (fun () -> Parser.program text));
      Test.make ~name:"pmir_validate"
        (Staged.stage (fun () -> Validate.check listing5));
      Test.make ~name:"andersen_analyze"
        (Staged.stage (fun () -> Hippo_alias.Andersen.analyze clht));
      Test.make ~name:"pmcheck_clht_workload"
        (Staged.stage (fun () ->
             let t = Interp.create Interp.default_config clht in
             Pclht.workload t;
             Interp.exit_check t;
             Interp.bugs t));
      Test.make ~name:"repair_pmdk_452"
        (Staged.stage (fun () -> repair_case (List.nth Bugs.all 1)));
      Test.make ~name:"repair_pclht"
        (Staged.stage (fun () -> repair_case (List.hd Pclht.cases)));
      Test.make ~name:"ycsb_generate_ops"
        (Staged.stage (fun () ->
             Hippo_ycsb.Workload.ops
               (Hippo_ycsb.Workload.default_spec Hippo_ycsb.Workload.A)
               ~seed:1));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Fmt.pr "  %-28s %12.1f ns/run@." name ns
          | _ -> Fmt.pr "  %-28s (no estimate)@." name)
        results)
    tests

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
    let static_ = (Driver.check_static prog).Hippo_staticcheck.Checker.bugs in
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

(* ------------------------------------------------------------------ *)
(* E9 — engine: per-phase breakdown + shared-analysis ablation sweep *)

let table_main () =
  section
    "engine — per-phase timing breakdown (ablation sweep, shared analysis \
     cache)";
  let cache = Hippo_engine.Cache.create () in
  let case = List.hd Pclht.cases in
  let configs =
    [
      ("default", Driver.default_options);
      ("no-hoist", { Driver.default_options with hoisting = false });
      ("no-reduction", { Driver.default_options with reduction = false });
      ("no-reuse", { Driver.default_options with clone_reuse = false });
    ]
  in
  let events =
    List.concat_map
      (fun (label, options) ->
        let r = repair_case ~options ~cache case in
        Fmt.pr "  %-14s fixes: %2d  verified: %s@." label
          (List.length r.Driver.plan.Fix.fixes)
          (if
             Verify.effective r.Driver.verification
             && Verify.harm_free r.Driver.verification
           then "yes"
           else "NO");
        r.Driver.events)
      configs
  in
  Fmt.pr "  per-phase breakdown (%s, %d configurations):@." case.Case.id
    (List.length configs);
  Fmt.pr "%a" Hippo_engine.Event.pp_table events;
  List.iter
    (fun (slot, computed, reused) ->
      Fmt.pr "  cache %-8s computed %d, reused %d@." slot computed reused)
    (Hippo_engine.Cache.stats cache);
  Fmt.pr "  Andersen points-to runs across the sweep: %d (expected 1 — \
          computed once, not once per configuration)@."
    (Hippo_engine.Cache.andersen_runs cache)

(* E10 — corpus-sweep scaling over worker domains *)

let table_par () =
  section "parallel — corpus-sweep wall-clock scaling over worker domains";
  let cases =
    Bugs.all @ [ List.hd Pclht.cases; List.hd Memcached_mini.cases ]
  in
  (* force once up front so no run pays the one-time program construction *)
  List.iter (fun (c : Case.t) -> ignore (Lazy.force c.Case.program)) cases;
  let plan_sig results =
    List.concat_map
      (fun (_, (r : Driver.result)) ->
        List.map Fix.to_string r.Driver.plan.Fix.fixes)
      results
  in
  let run jobs =
    (* wall clock, not Sys.time: CPU time sums over domains and would hide
       any speedup *)
    let t0 = Unix.gettimeofday () in
    let results, cache = Sweep.corpus ~jobs cases in
    (Unix.gettimeofday () -. t0, results, cache)
  in
  Fmt.pr "  %d cases; recommended domain count on this host: %d@."
    (List.length cases)
    (Domain.recommended_domain_count ());
  let base_t, base_r, _ = run 1 in
  Fmt.pr "  jobs %2d: %7.3fs  %7s  (baseline)@." 1 base_t "1.00x";
  List.iter
    (fun jobs ->
      let t, r, cache = run jobs in
      Fmt.pr "  jobs %2d: %7.3fs  %6.2fx  (plans %s baseline; %d analysis \
              computes across worker caches)@."
        jobs t (base_t /. t)
        (if plan_sig r = plan_sig base_r then "identical to" else "DIFFER from")
        (List.fold_left
           (fun acc (_, c, _) -> acc + c)
           0
           (Hippo_engine.Cache.stats cache)))
    [ 2; 4 ];
  Fmt.pr
    "  (speedup tracks physical cores: a 1-core host pins every row near \
     1.00x, a 4-core host should reach >= 2x at jobs 4)@."

(* E11 — crash-sweep: single-pass dedup vs per-crash-point replay *)

(* Small interpreter buffers: a crash sweep creates one machine per
   recovery run, and at the default sizes buffer zeroing would dwarf the
   work being measured. Both strategies run under the same per-subject
   config, sized to the subject's actual footprint. *)
let crash_config ~pm_size =
  {
    Interp.default_config with
    Interp.vol_size = 1 lsl 12;
    stack_size = 1 lsl 14;
    global_size = 1 lsl 12;
    pm_size;
  }

let counter_pmir =
  {pmir|
; shadow counter: value at [0], shadow at [64]; the shadow store is
; never flushed, so every crash point loses it — and every durable
; image is distinct (the dedup-hostile case).
func @cnt_init() {
entry:
  %c = call @pm_alloc(128)
  store.i64 0 -> %c @ "cnt.c":1
  %s = gep %c, 64
  store.i64 0 -> %s @ "cnt.c":2
  flush.clwb %c
  flush.clwb %s
  fence.sfence
  ret
}

func @cnt_bump() {
entry:
  %c = call @pm_base()
  %s = gep %c, 64
  %x0 = load.i64 %c
  %x = add %x0, 1
  store.i64 %x -> %c @ "cnt.c":10
  flush.clwb %c
  fence.sfence
  store.i64 %x -> %s @ "cnt.c":12
  crash @ "cnt.c":14
  ret
}

func @cnt_check() {
entry:
  %c = call @pm_base()
  %s = gep %c, 64
  %a = load.i64 %c
  %b = load.i64 %s
  %e = eq %a, %b
  ret %e
}
|pmir}

let pingpong_pmir =
  {pmir|
; correctly-persisted one-bit toggle: the durable image cycles between
; two states, so a sweep of any length needs only a handful of recovery
; runs (the dedup-friendly case).
func @pp_init() {
entry:
  %c = call @pm_alloc(64)
  store.i64 0 -> %c @ "pp.c":1
  flush.clwb %c
  fence.sfence
  ret
}

func @pp_flip() {
entry:
  %c = call @pm_base()
  %x = load.i64 %c
  %y = sub 1, %x
  store.i64 %y -> %c @ "pp.c":6
  flush.clwb %c
  fence.sfence
  crash @ "pp.c":9
  ret
}

func @pp_check() {
entry:
  %c = call @pm_base()
  %x = load.i64 %c
  %ok = lt %x, 2
  ret %ok
}
|pmir}

let crash_subjects () =
  let parsed name text =
    try Parser.program text
    with Parser.Parse_error { line; msg } ->
      Fmt.failwith "bench %s: parse error at line %d: %s" name line msg
  in
  let clht_setup =
    [ ("clht_init", [ 4 ]) ]
    @ List.concat_map
        (fun k -> [ ("clht_put", [ k; k * 3 ]) ])
        (List.init 40 (fun k -> k + 1))
    @ [ ("clht_put", [ 3; 999 ]) ]
  in
  [
    ( "p-clht",
      Pclht.build (),
      clht_setup,
      "clht_recover_check",
      crash_config ~pm_size:(1 lsl 15) );
    ( "counter",
      parsed "counter" counter_pmir,
      ("cnt_init", []) :: List.init 150 (fun _ -> ("cnt_bump", [])),
      "cnt_check",
      crash_config ~pm_size:(1 lsl 12) );
    ( "pingpong",
      parsed "pingpong" pingpong_pmir,
      ("pp_init", []) :: List.init 150 (fun _ -> ("pp_flip", [])),
      "pp_check",
      crash_config ~pm_size:(1 lsl 12) );
  ]

let table_crash () =
  section
    "crash — single-pass dedup sweep vs per-crash-point replay (--jobs 1)";
  Fmt.pr
    "  %-10s %6s %9s %9s %10s %10s %8s %s@." "subject" "n" "distinct"
    "runs" "replay" "single" "speedup" "verdicts";
  let rows =
    List.map
      (fun (id, prog, setup, checker, config) ->
        let time f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (Unix.gettimeofday () -. t0, r)
        in
        let t_sp, (v_sp, stats) =
          time (fun () ->
              Crashsim.sweep_with_stats ~config ~jobs:1 prog ~setup ~checker
                ~checker_args:[])
        in
        let t_rp, v_rp =
          time (fun () ->
              Crashsim.replay_sweep ~config ~jobs:1 prog ~setup ~checker
                ~checker_args:[])
        in
        let v_sp4 =
          Crashsim.sweep ~config ~jobs:4 prog ~setup ~checker
            ~checker_args:[]
        in
        let identical = v_sp = v_rp && v_sp = v_sp4 in
        Fmt.pr "  %-10s %6d %9d %9d %9.3fs %9.3fs %7.1fx %s@." id
          stats.Crashsim.crash_points stats.Crashsim.distinct_images
          stats.Crashsim.recovery_runs t_rp t_sp (t_rp /. t_sp)
          (if identical then "identical" else "DIFFER");
        (t_rp, t_sp, identical))
      (crash_subjects ())
  in
  let tot_rp = List.fold_left (fun a (r, _, _) -> a +. r) 0.0 rows in
  let tot_sp = List.fold_left (fun a (_, s, _) -> a +. s) 0.0 rows in
  let all_identical = List.for_all (fun (_, _, i) -> i) rows in
  Fmt.pr
    "  total: replay %.3fs, single-pass %.3fs, speedup %.1fx (threshold: >= \
     5x); verdicts %s across strategies and jobs {1,4}@."
    tot_rp tot_sp (tot_rp /. tot_sp)
    (if all_identical then "identical" else "DIFFER")

(* fuzz — coverage-guided mutation vs coverage-blind generation ------- *)

let seed = ref 0

let table_fuzz () =
  section
    (Fmt.str
       "fuzz — guided mutation vs blind generation at equal exec counts \
        (seed %d, --jobs %d)"
       !seed !jobs);
  Fmt.pr "  %-8s %8s %8s %10s %8s %s@." "execs" "guided" "blind" "corpus"
    "violations" "guided>blind";
  let ahead =
    List.map
      (fun execs ->
        let s =
          Hippo_fuzz.Fuzzer.run
            {
              Hippo_fuzz.Fuzzer.default_config with
              Hippo_fuzz.Fuzzer.seed = !seed;
              jobs = !jobs;
              max_execs = execs;
            }
        in
        let ahead = s.Hippo_fuzz.Fuzzer.edges > s.Hippo_fuzz.Fuzzer.blind_edges in
        Fmt.pr "  %-8d %8d %8d %10d %8d %s@." execs
          s.Hippo_fuzz.Fuzzer.edges s.Hippo_fuzz.Fuzzer.blind_edges
          s.Hippo_fuzz.Fuzzer.corpus_size
          (List.length s.Hippo_fuzz.Fuzzer.found)
          (if ahead then "yes" else "NO");
        ahead)
      [ 64; 128; 256 ]
  in
  Fmt.pr
    "  guided coverage strictly exceeds the blind baseline at every exec \
     count: %s@."
    (if List.for_all Fun.id ahead then "yes" else "NO")

(* opt — the flush/fence optimizer: savings and do-no-harm ------------ *)

let clht_sweep_setup =
  [ ("clht_init", [ 4 ]) ]
  @ List.concat_map
      (fun k -> [ ("clht_put", [ k; k * 3 ]) ])
      (List.init 20 (fun k -> k + 1))
  @ [ ("clht_put", [ 3; 999 ]) ]

let table_opt () =
  section
    (Fmt.str
       "opt — flush/fence optimizer over repaired corpus and app subjects \
        (--jobs %d)"
       !jobs);
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
    let o = O.run prog in
    let cost0 = sim_cost prog workload in
    let cost1 = sim_cost o.O.o_prog workload in
    (name, o, cost0, cost1)
  in
  let corpus_rows =
    List.map
      (fun (c : Case.t) ->
        let r =
          Driver.repair ~name:c.Case.id ~workload:c.Case.workload
            (Lazy.force c.Case.program)
        in
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
  let pclht_opt = (O.run pclht_rep).O.o_prog in
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
(* Command line: [--full] [--jobs N] [--seed N] [EXPERIMENT...] *)

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
    ("table_main", table_main);
    ("table_par", table_par);
    ("table_crash", table_crash);
    ("table_fuzz", table_fuzz);
    ("table_opt", table_opt);
    ("micro", micro);
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
  ablate_heuristic ();
  table_main ();
  table_par ();
  table_crash ();
  table_fuzz ();
  micro ()

let usage_error msg =
  Fmt.epr
    "bench: %s@.usage: main.exe [--full] [--jobs N] [--seed N] \
     [EXPERIMENT...]@.experiments: %s@."
    msg
    (String.concat " " (List.map fst experiments));
  exit 2

(* Flags apply wherever they appear; every argument is checked before
   any experiment runs. *)
let rec parse = function
  | [] -> []
  | "--full" :: rest ->
      full := true;
      parse rest
  | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some k when k >= 1 -> jobs := k
      | _ -> usage_error (Fmt.str "--jobs expects a positive integer, got %S" n));
      parse rest
  | "--seed" :: n :: rest ->
      (match int_of_string_opt n with
      | Some k -> seed := k
      | None -> usage_error (Fmt.str "--seed expects an integer, got %S" n));
      parse rest
  | [ (("--jobs" | "--seed") as flag) ] ->
      usage_error (Fmt.str "%s expects a value" flag)
  | name :: rest -> (
      match List.assoc_opt name experiments with
      | Some run -> run :: parse rest
      | None -> usage_error (Fmt.str "unknown experiment or flag %S" name))

let () =
  match parse (List.tl (Array.to_list Sys.argv)) with
  | [] -> run_all ()
  | runs -> List.iter (fun run -> run ()) runs
