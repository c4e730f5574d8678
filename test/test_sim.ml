(* The scenario simulator: digest determinism across jobs widths,
   single-crash semantics of the forced-crash hook, and differential
   agreement with the per-crash-point sweep. *)

open Hippo_pmcheck
open Hippo_apps
module Faults = Hippo_sim.Faults
module Scenario = Hippo_sim.Scenario
module Harness = Hippo_sim.Harness

(* Small fleets: the battery runs dozens of harness invocations. *)
let small kind variant mode =
  {
    Harness.default_config with
    Harness.kind;
    variant;
    mode;
    scenarios = 3;
    ops = 24;
    keyspace = 10;
    nbuckets = 8;
  }

let run_exn cfg =
  match Harness.run cfg with Ok r -> r | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* determinism: one seed, one digest — at every jobs width *)

let prop_jobs_identical =
  QCheck.Test.make ~count:4 ~name:"same seed => same digest at jobs {1,2,4}"
    QCheck.small_nat (fun seed ->
      let cfg = { (small App.Redis App.Manual Harness.Standard) with Harness.seed } in
      let reports =
        List.map (fun jobs -> run_exn { cfg with Harness.jobs }) [ 1; 2; 4 ]
      in
      match reports with
      | r1 :: rest ->
          List.for_all
            (fun r ->
              String.equal r.Harness.digest r1.Harness.digest
              && r.Harness.crashes = r1.Harness.crashes
              && r.Harness.violating = r1.Harness.violating)
            rest
      | [] -> false)

let test_quick_mode_clean () =
  (* fault-free scenarios on the hand-hardened builds: pure workload vs
     shadow, nothing to report *)
  List.iter
    (fun kind ->
      let r = run_exn (small kind App.Manual Harness.Quick) in
      Alcotest.(check int)
        (App.kind_to_string kind ^ " crashes")
        0 r.Harness.crashes;
      Alcotest.(check int)
        (App.kind_to_string kind ^ " violations")
        0
        (List.length r.Harness.violations))
    [ App.Redis; App.Pclht ]

(* The transcript fingerprints each crash image, not the segment it came
   from: a scenario's transcript does not depend on the PM segment's
   size as long as the workload fits. *)
let test_transcript_independent_of_pm_size () =
  let cfg = small App.Redis App.Manual Harness.Chaos in
  let prog =
    match App.program App.Redis App.Manual with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let play pm_size =
    let config = { (Harness.interp_config cfg) with Machine.pm_size } in
    match
      Scenario.run ~seed:42 ~index:0 (Harness.scenario_config cfg)
        ~make_app:(fun () ->
          Ok
            (App.wrap ~config ~nbuckets:cfg.Harness.nbuckets App.Redis
               App.Manual prog))
        ()
    with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let at_16mb = play (1 lsl 24) and at_1mb = play (1 lsl 20) in
  Alcotest.(check bool) "the scenario crashes" true
    (at_16mb.Scenario.crashes > 0);
  Alcotest.(check string) "transcript" at_16mb.Scenario.transcript
    at_1mb.Scenario.transcript

(* ------------------------------------------------------------------ *)
(* chaos on the buggy baseline detects; the repair survives the same
   schedule (do no harm, observed end to end) *)

let test_chaos_detects_injected_bugs () =
  let cfg =
    { (small App.Pclht App.Manual Harness.Chaos) with Harness.seed = 7 }
  in
  let r = run_exn cfg in
  Alcotest.(check bool) "crashes injected" true (r.Harness.crashes > 0);
  Alcotest.(check bool)
    "P-CLHT's injected bugs surface under chaos" true
    (r.Harness.violating <> [])

let test_repaired_survives_chaos () =
  let cfg =
    {
      (small App.Pclht App.Repaired Harness.Chaos) with
      Harness.seed = 7;
      scenarios = 2;
    }
  in
  let r = run_exn cfg in
  Alcotest.(check (list int)) "repaired app clean" [] r.Harness.violating;
  Alcotest.(check bool) "schedule was hostile" true (r.Harness.crashes > 0);
  Alcotest.(check bool)
    "lockstep baseline (repair input) violates" true
    (r.Harness.baseline_violating <> [])

(* ------------------------------------------------------------------ *)
(* differential: a forced-crash scenario must agree with the replay
   sweep's verdict at the same crash point *)

(* two buckets under eight keys: overflow chains form, so the injected
   CLHT bugs (unflushed slot publish / chain link) sit on the path *)
let scen_cfg =
  { Scenario.default with Scenario.ops = 12; keyspace = 8; recovery_ns = 0. }

let setup_of ops =
  ("clht_init", [ 2 ])
  :: List.map
       (fun op ->
         match op with
         | Scenario.Insert { key; value } ->
             ("clht_put", [ App.word_of_string key; App.word_of_string value ])
         | Scenario.Read { key } -> ("clht_get", [ App.word_of_string key ])
         | Scenario.Delete { key } -> ("clht_del", [ App.word_of_string key ]))
       ops

let test_forced_crash_matches_sweep () =
  let prog = Pclht.build () in
  let icfg = { Machine.default_config with Machine.trace = false } in
  let seed = 5 and index = 0 in
  let ops = Scenario.ops_of ~seed ~index scen_cfg in
  let setup = setup_of ops in
  let init_pts =
    Crashsim.count_crash_points ~config:icfg prog
      ~setup:[ ("clht_init", [ 2 ]) ]
  in
  let total_pts = Crashsim.count_crash_points ~config:icfg prog ~setup in
  Alcotest.(check bool) "workload passes crash points" true
    (total_pts > init_pts);
  let run_forced ci =
    match
      Scenario.run ~seed ~index
        { scen_cfg with Scenario.force_crash_at = Some ci }
        ~make_app:(fun () ->
          Ok (App.wrap ~config:icfg ~nbuckets:2 App.Pclht App.Manual prog))
        ()
    with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let inconsistent = ref 0 in
  for ci = init_pts + 1 to total_pts do
    let v =
      Crashsim.check_crash ~config:icfg prog ~setup
        ~checker:"clht_recover_check" ~checker_args:[] ~crash_index:ci
    in
    let o = run_forced ci in
    Alcotest.(check int)
      (Printf.sprintf "exactly one crash at point %d" ci)
      1 o.Scenario.crashes;
    if not v.Crashsim.pessimistic_ok then begin
      incr inconsistent;
      Alcotest.(check bool)
        (Printf.sprintf
           "sweep-inconsistent crash point %d => scenario violation" ci)
        true
        (o.Scenario.violations <> [])
    end
  done;
  (* the injected CLHT bugs guarantee the interesting direction is
     exercised, not vacuous *)
  Alcotest.(check bool) "some crash point is sweep-inconsistent" true
    (!inconsistent > 0)

(* fault-free forced runs of one scenario are digest-stable, and a
   force index beyond the last crash point degrades to a clean run *)
let test_forced_crash_bounds () =
  let prog = Pclht.build () in
  let icfg = { Machine.default_config with Machine.trace = false } in
  let mk () = Ok (App.wrap ~config:icfg ~nbuckets:2 App.Pclht App.Manual prog) in
  let go cfg =
    match Scenario.run ~seed:5 ~index:1 cfg ~make_app:mk () with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let a = go scen_cfg and b = go scen_cfg in
  Alcotest.(check string) "fault-free reruns agree" a.Scenario.digest
    b.Scenario.digest;
  Alcotest.(check int) "no crashes drawn at rate 0" 0 a.Scenario.crashes;
  let far = go { scen_cfg with Scenario.force_crash_at = Some 100_000 } in
  Alcotest.(check int) "unreachable point never fires" 0 far.Scenario.crashes

let suite =
  [
    QCheck_alcotest.to_alcotest prop_jobs_identical;
    Alcotest.test_case "quick mode on manual builds is clean" `Quick
      test_quick_mode_clean;
    Alcotest.test_case "transcripts do not depend on the PM segment size"
      `Quick test_transcript_independent_of_pm_size;
    Alcotest.test_case "chaos detects P-CLHT's injected bugs" `Quick
      test_chaos_detects_injected_bugs;
    Alcotest.test_case "repaired app survives the baseline's chaos" `Slow
      test_repaired_survives_chaos;
    Alcotest.test_case "forced crashes agree with the replay sweep" `Quick
      test_forced_crash_matches_sweep;
    Alcotest.test_case "forced-crash bounds and rerun stability" `Quick
      test_forced_crash_bounds;
  ]
