(* The flush/fence optimizer: per-rule unit semantics on minimal
   programs, the must-not-remove cases, do-no-harm properties over
   random programs (static reports identical, crash-sweep verdicts
   identical at any [--jobs]), and analysis-cache sharing with repair. *)

open Hippo_pmir
open Hippo_engine
module Driver = Hippo_core.Driver
module Gen = Hippo_fuzz.Gen
module Timed = Hippo_perfmodel.Timed

let i = Value.imm

let build body =
  let b = Builder.create () in
  let (_ : string) = Builder.func b "main" [] ~body in
  let p = Builder.program b in
  Validate.check_exn p;
  p

(* The optimizer as users run it: [Driver.optimize]'s opt-analyze ->
   opt-apply -> opt-verify stages. *)
let optimize p = (Driver.optimize ~name:"test" p).Driver.t_outcome

let rules o = List.map (fun r -> r.Optimize.r_rule) o.Optimize.o_removals

let counts p =
  let c = Timed.static_counts p in
  (c.Timed.flushes, c.Timed.fences)

(* ------------------------------------------------------------------ *)
(* Rewrite rules, one by one *)

(* store; flush; fence; flush; fence — the second pair is redundant on
   the only path: covered flush, dominated fence. *)
let test_covered_flush_and_dominated_fence () =
  let p =
    build (fun fb ->
        let open Builder in
        let pm = call fb "pm_base" [] in
        store fb ~addr:pm (i 7);
        flush fb pm;
        fence fb ();
        flush fb pm;
        fence fb ();
        ret_void fb)
  in
  let o = optimize p in
  Alcotest.(check bool) "not reverted" false o.Optimize.o_reverted;
  Alcotest.(check bool) "reports identical" true o.Optimize.o_report_equal;
  Alcotest.(check (list bool))
    "one covered flush, one dominated fence"
    [ true; true ]
    [
      List.mem Optimize.Covered_flush (rules o);
      List.mem Optimize.Dominated_fence (rules o);
    ];
  let f0, n0 = counts p and f1, n1 = counts o.Optimize.o_prog in
  Alcotest.(check (pair int int)) "one flush and one fence gone"
    (f0 - 1, n0 - 1) (f1, n1)

(* store; pmem_persist; pmem_persist — the second call site is entirely
   redundant (nothing in flight, lines already durable). *)
let test_double_persist () =
  let p =
    let b = Builder.create () in
    Hippo_pmdk_mini.Runtime.add b;
    let (_ : string) =
      Builder.func b "main" [] ~body:(fun fb ->
          let open Builder in
          let pm = call fb "pm_base" [] in
          store fb ~addr:pm (i 7);
          call_void fb "pmem_persist" [ pm; i 8 ];
          call_void fb "pmem_persist" [ pm; i 8 ];
          ret_void fb)
    in
    let p = Builder.program b in
    Validate.check_exn p;
    p
  in
  let o = optimize p in
  Alcotest.(check bool) "not reverted" false o.Optimize.o_reverted;
  Alcotest.(check (list Alcotest.bool))
    "covered persist removed" [ true ]
    [ rules o = [ Optimize.Covered_persist ] ]

(* flush of provably-volatile memory: removable regardless of state. *)
let test_volatile_flush () =
  let p =
    build (fun fb ->
        let open Builder in
        let v = call fb "malloc" [ i 64 ] in
        store fb ~addr:v (i 1);
        flush fb v;
        ret_void fb)
  in
  let o = optimize p in
  Alcotest.(check bool) "volatile flush removed" true
    (rules o = [ Optimize.Volatile_flush ])

(* adjacent fences with nothing between them coalesce to one. *)
let test_adjacent_fences_coalesce () =
  let p =
    build (fun fb ->
        let open Builder in
        let pm = call fb "pm_base" [] in
        store fb ~addr:pm (i 7);
        flush fb pm;
        fence fb ();
        fence fb ();
        fence fb ();
        ret_void fb)
  in
  let o = optimize p in
  Alcotest.(check int) "two of three fences removed" 2
    (List.length
       (List.filter (fun r -> r = Optimize.Dominated_fence) (rules o)));
  let _, n1 = counts o.Optimize.o_prog in
  Alcotest.(check int) "one fence left" 1 n1

(* ------------------------------------------------------------------ *)
(* Must-not-remove cases *)

(* The ISSUE's named case: the first flush+fence runs on only one path,
   so the final flush still feeds the final fence on the other path —
   neither of the final pair may be removed. (The branch fence itself
   may legally coalesce into the final one: the window between them is
   crash-free, so every crash image is unchanged.) *)
let test_one_path_flush_kept () =
  let p =
    let b = Builder.create () in
    let (_ : string) =
      Builder.func b "main" [ "c" ] ~body:(fun fb ->
          let open Builder in
          let pm = call fb "pm_base" [] in
          store fb ~addr:pm (i 7);
          if_ fb (Value.reg "c")
            ~then_:(fun () ->
              flush fb pm;
              fence fb ())
            ();
          flush fb pm;
          fence fb ();
          ret_void fb)
    in
    let p = Builder.program b in
    Validate.check_exn p;
    p
  in
  let o = optimize p in
  Alcotest.(check int) "no flush removed" 0
    (List.length
       (List.filter
          (fun r ->
            r = Optimize.Covered_flush || r = Optimize.Volatile_flush
            || r = Optimize.Covered_persist)
          (rules o)));
  let f0, _ = counts p and f1, n1 = counts o.Optimize.o_prog in
  Alcotest.(check int) "both flushes kept" f0 f1;
  Alcotest.(check bool) "a fence survives to cover the final flush" true
    (n1 >= 1)

(* A fence whose window to the next fence contains a crash point must
   be kept: the crash image would otherwise lose the pending flush. The
   same shape without the crash coalesces. *)
let test_fence_before_crash_point_kept () =
  let shape ~with_crash =
    let b = Builder.create () in
    let (_ : string) =
      Builder.func b "main" [] ~body:(fun fb ->
          let open Builder in
          let pm = call fb "pm_base" [] in
          store fb ~addr:pm (i 7);
          flush fb pm;
          fence fb ();
          if with_crash then Builder.crash fb;
          store fb ~addr:(gep fb pm (i 8)) (i 9);
          flush fb (gep fb pm (i 8));
          fence fb ();
          ret_void fb)
    in
    let p = Builder.program b in
    Validate.check_exn p;
    p
  in
  let o_crash = optimize (shape ~with_crash:true) in
  Alcotest.(check bool) "crash in window: fence kept" true
    (not (List.mem Optimize.Coalesced_fence (rules o_crash)));
  let o_clear = optimize (shape ~with_crash:false) in
  Alcotest.(check bool) "crash-free window: fence coalesced" true
    (List.mem Optimize.Coalesced_fence (rules o_clear));
  let _, n1 = counts o_clear.Optimize.o_prog in
  Alcotest.(check int) "one fence left" 1 n1

(* A fence after a callee that flushes without fencing covers that
   callee's in-flight lines: removing it would be unsound (P-CLHT's
   clht_size_add shape), so [may_flush] must keep it. *)
let test_fence_after_flushing_callee_kept () =
  let p =
    let b = Builder.create () in
    let (_ : string) =
      Builder.func b "bump" [ "p" ] ~body:(fun fb ->
          let open Builder in
          store fb ~addr:(Value.reg "p") (i 1);
          flush fb (Value.reg "p");
          ret_void fb)
    in
    let (_ : string) =
      Builder.func b "main" [] ~body:(fun fb ->
          let open Builder in
          let pm = call fb "pm_base" [] in
          store fb ~addr:pm (i 7);
          flush fb pm;
          fence fb ();
          call_void fb "bump" [ pm ];
          fence fb ();
          ret_void fb)
    in
    let p = Builder.program b in
    Validate.check_exn p;
    p
  in
  let o = optimize p in
  Alcotest.(check bool) "final fence kept" true
    (not (List.mem Optimize.Dominated_fence (rules o)))

(* Allocation-site objects may have several live instances sharing one
   abstract object; flushing one instance must not certify another, so
   clean-promotion (and covered-flush removal) is off for them. *)
let test_alloc_site_not_promoted () =
  let p =
    build (fun fb ->
        let open Builder in
        let a = call fb "pm_alloc" [ i 64 ] in
        store fb ~addr:a (i 7);
        flush fb a;
        fence fb ();
        flush fb a;
        fence fb ();
        ret_void fb)
  in
  let o = optimize p in
  Alcotest.(check bool) "no covered flush on pm_alloc object" true
    (not (List.mem Optimize.Covered_flush (rules o)))

(* ------------------------------------------------------------------ *)
(* Corpus and application subjects *)

(* Every repaired memcached corpus case carries removable redundancy
   (the repair-inserted fences in [mc_store_item] coalesce into the
   trailing drain, and [cmd_del]'s drain is dominated); the PMDK cases
   are already tight — every remaining op there is load-bearing, and
   the optimizer must say so by removing nothing. *)
let repair_case (c : Hippo_pmdk_mini.Case.t) =
  let r =
    Driver.repair ~name:c.Hippo_pmdk_mini.Case.id
      ~workload:c.Hippo_pmdk_mini.Case.workload
      (Lazy.force c.Hippo_pmdk_mini.Case.program)
  in
  r.Driver.repaired

let test_corpus_memcached_optimizes () =
  let case =
    List.find
      (fun (c : Hippo_pmdk_mini.Case.t) -> c.Hippo_pmdk_mini.Case.id = "mc-1")
      Hippo_apps.Memcached_mini.cases
  in
  let o = optimize (repair_case case) in
  Alcotest.(check bool) "not reverted" false o.Optimize.o_reverted;
  Alcotest.(check bool) "removes at least one persistence op" true
    (o.Optimize.o_removals <> []);
  let before = o.Optimize.o_before and after = o.Optimize.o_after in
  Alcotest.(check bool) "flush+fence sites strictly drop" true
    (after.Timed.flushes + after.Timed.fences
    < before.Timed.flushes + before.Timed.fences)

let test_corpus_case_452_stays_tight () =
  let case =
    List.find
      (fun (c : Hippo_pmdk_mini.Case.t) -> c.Hippo_pmdk_mini.Case.issue = Some 452)
      Hippo_pmdk_mini.Bugs.all
  in
  let o = optimize (repair_case case) in
  Alcotest.(check bool) "not reverted" false o.Optimize.o_reverted;
  Alcotest.(check int) "nothing to remove: the repair is tight" 0
    (List.length o.Optimize.o_removals)

let clht_setup =
  [ ("clht_init", [ 4 ]) ]
  @ List.concat_map
      (fun k -> [ ("clht_put", [ k; k * 3 ]) ])
      (List.init 20 (fun k -> k + 1))
  @ [ ("clht_put", [ 3; 999 ]) ]

let test_pclht_repaired_optimizes_and_verdicts_identical () =
  let p = Hippo_apps.Pclht.build () in
  let r = Driver.repair ~name:"pclht" ~workload:Hippo_apps.Pclht.workload p in
  let o = optimize r.Driver.repaired in
  Alcotest.(check bool) "not reverted" false o.Optimize.o_reverted;
  Alcotest.(check bool) "removes at least one persistence op" true
    (o.Optimize.o_removals <> []);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Fmt.str "crash verdicts identical at jobs %d" jobs)
        true
        (Optimize.crash_verdicts_identical ~jobs ~setup:clht_setup
           ~checker:"clht_recover_check" ~checker_args:[] r.Driver.repaired
           o.Optimize.o_prog))
    [ 1; 2 ]

(* Redis: the optimizer must find savings on the repaired build (the
   repair pipeline's fences coalesce into dict_set's own) and keep the
   static reports identical on both builds it serves. *)
let test_redis_variants_optimize () =
  List.iter
    (fun variant ->
      match Hippo_apps.App.program Hippo_apps.App.Redis variant with
      | Error e -> Alcotest.fail e
      | Ok p ->
          let o = optimize p in
          Alcotest.(check bool) "not reverted" false o.Optimize.o_reverted;
          Alcotest.(check bool) "reports identical" true
            o.Optimize.o_report_equal;
          Alcotest.(check bool) "removes at least one persistence op" true
            (o.Optimize.o_removals <> []))
    [ Hippo_apps.App.Manual; Hippo_apps.App.Repaired ]

(* ------------------------------------------------------------------ *)
(* Cache sharing: optimize after repair reuses the version's Andersen. *)

let test_andersen_shared_with_repair () =
  let p = Hippo_apps.Pclht.build () in
  let cache = Cache.create () in
  let r =
    Driver.repair ~cache ~name:"pclht" ~workload:Hippo_apps.Pclht.workload p
  in
  (* warm the repaired version's analyses the way a re-check would *)
  let (_ : Hippo_staticcheck.Checker.result) =
    Cache.static_check (Cache.view cache r.Driver.repaired)
  in
  let runs = Cache.andersen_runs cache in
  let o =
    (Driver.optimize ~cache ~name:"pclht" r.Driver.repaired).Driver.t_outcome
  in
  Alcotest.(check bool) "the rewrite is a new version" true
    (o.Optimize.o_removals <> []);
  (* opt-analyze reuses the repaired version's Andersen; only opt-verify's
     re-check of the rewritten program needs a run of its own *)
  Alcotest.(check int) "one Andersen run, for the rewritten version" (runs + 1)
    (Cache.andersen_runs cache)

(* ------------------------------------------------------------------ *)
(* Properties over random programs *)

let qcount = 60

let prop_valid_and_report_equal =
  QCheck.Test.make ~count:qcount ~name:"optimized output valid + reports equal"
    Gen.arb_mixed (fun p ->
      let o = optimize p in
      (* revert never fires: the analysis itself is report-preserving *)
      Validate.is_valid o.Optimize.o_prog
      && o.Optimize.o_report_equal
      && (not o.Optimize.o_reverted)
      &&
      let b = o.Optimize.o_before and a = o.Optimize.o_after in
      a.Timed.flushes <= b.Timed.flushes && a.Timed.fences <= b.Timed.fences)

let prop_crash_verdicts_identical =
  QCheck.Test.make ~count:25 ~name:"crash-sweep verdicts identical"
    Gen.arb_crash (fun p ->
      let o = optimize p in
      List.for_all
        (fun jobs ->
          Optimize.crash_verdicts_identical ~jobs ~setup:Gen.setup
            ~checker:Gen.checker_name ~checker_args:[] p o.Optimize.o_prog)
        [ 1; 2 ])

let suite =
  [
    Alcotest.test_case "covered flush + dominated fence" `Quick
      test_covered_flush_and_dominated_fence;
    Alcotest.test_case "double pmem_persist" `Quick test_double_persist;
    Alcotest.test_case "volatile flush" `Quick test_volatile_flush;
    Alcotest.test_case "adjacent fences coalesce" `Quick
      test_adjacent_fences_coalesce;
    Alcotest.test_case "one-path flush kept" `Quick test_one_path_flush_kept;
    Alcotest.test_case "fence before crash point kept" `Quick
      test_fence_before_crash_point_kept;
    Alcotest.test_case "fence after flushing callee kept" `Quick
      test_fence_after_flushing_callee_kept;
    Alcotest.test_case "alloc-site lines never promoted" `Quick
      test_alloc_site_not_promoted;
    Alcotest.test_case "corpus mc-1 repaired then optimized" `Slow
      test_corpus_memcached_optimizes;
    Alcotest.test_case "corpus 452 already tight" `Slow
      test_corpus_case_452_stays_tight;
    Alcotest.test_case "pclht repaired: removal + verdicts identical" `Slow
      test_pclht_repaired_optimizes_and_verdicts_identical;
    Alcotest.test_case "redis manual+repaired optimize" `Slow
      test_redis_variants_optimize;
    Alcotest.test_case "andersen shared with repair" `Slow
      test_andersen_shared_with_repair;
    QCheck_alcotest.to_alcotest prop_valid_and_report_equal;
    QCheck_alcotest.to_alcotest prop_crash_verdicts_identical;
  ]
