module Pmir_gen = Hippo_fuzz.Gen
(* Differential testing of the two bug detectors over generated PMIR.

   [Pmir_gen.arb_bug_free] programs persist every PM store before exit,
   so the dynamic finder (executing the workload) and the static analyzer
   (abstract interpretation from the roots) must both report zero bugs —
   any disagreement is a soundness or precision defect in one of them. *)

open Hippo_pmcheck
open Hippo_core

let dynamic_bugs p =
  let t = Interp.create Interp.default_config p in
  Pmir_gen.workload t;
  Interp.exit_check t;
  Interp.bugs t

let static_bugs p =
  (Hippo_staticcheck.Checker.check p).Hippo_staticcheck.Checker.bugs

let prop_detectors_agree_on_bug_free =
  QCheck.Test.make
    ~name:"static and dynamic detectors agree: bug-free stays bug-free"
    ~count:80 Pmir_gen.arb_bug_free (fun p ->
      dynamic_bugs p = [] && static_bugs p = [])

let prop_repair_is_noop_on_bug_free =
  QCheck.Test.make ~name:"repair of a bug-free program is a no-op" ~count:25
    Pmir_gen.arb_bug_free (fun p ->
      let r = Driver.repair ~name:"gen" ~workload:Pmir_gen.workload p in
      r.Driver.bugs = []
      && r.Driver.plan.Fix.fixes = []
      && r.Driver.input_instrs = r.Driver.output_instrs)

let prop_mixed_detection_repairable =
  (* over the full alphabet: whatever the dynamic finder reports, the
     pipeline repairs with both guarantees intact *)
  QCheck.Test.make ~name:"mixed programs always repair clean" ~count:40
    Pmir_gen.arb_mixed (fun p ->
      let r = Driver.repair ~name:"gen" ~workload:Pmir_gen.workload p in
      Verify.effective r.Driver.verification
      && Verify.harm_free r.Driver.verification)

let test_generator_shapes () =
  (* one fixed program exercising every step constructor stays valid and
     bug-free under both detectors *)
  let p =
    Pmir_gen.program_of_steps
      [
        Pmir_gen.S_persist (0, 1);
        Pmir_gen.S_persist_helper (1, 2);
        Pmir_gen.S_batch [ (2, 3); (3, 4) ];
        Pmir_gen.S_vol_store (0, 5);
        Pmir_gen.S_emit 1;
      ]
  in
  Alcotest.(check int) "dynamic: no bugs" 0 (List.length (dynamic_bugs p));
  Alcotest.(check int) "static: no bugs" 0 (List.length (static_bugs p))

let test_raw_store_is_a_bug_for_both () =
  let p = Pmir_gen.program_of_steps [ Pmir_gen.S_store_raw (0, 7) ] in
  Alcotest.(check bool) "dynamic reports it" true (dynamic_bugs p <> []);
  Alcotest.(check bool) "static reports it" true (static_bugs p <> [])

let suite =
  [
    ("generator shapes", `Quick, test_generator_shapes);
    ("raw store flagged by both", `Quick, test_raw_store_is_a_bug_for_both);
    QCheck_alcotest.to_alcotest prop_detectors_agree_on_bug_free;
    QCheck_alcotest.to_alcotest prop_repair_is_noop_on_bug_free;
    QCheck_alcotest.to_alcotest prop_mixed_detection_repairable;
  ]
