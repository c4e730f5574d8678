(* End-to-end repair pipeline tests, including the executable counterparts
   of the paper's guarantees as qcheck properties over randomly generated
   buggy programs:

   - completeness: after repair, the bug finder reports zero bugs;
   - do no harm: repair preserves emitted outputs and final working PM
     contents on the same workload;
   - robustness: the guarantees hold with hoisting disabled, with fix
     reduction disabled, and under the Trace-AA oracle. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core

let i = Value.imm

(* ------------------------------------------------------------------ *)
(* Random buggy-program generator.

   Shape: a helper [h] that writes one word through its pointer argument
   (shared by volatile and persistent callers), plus a main function
   performing a random sequence of PM stores, volatile stores, flushes,
   fences, helper calls and emits. Bugs arise naturally from the random
   omission of flushes and fences. *)

type step =
  | S_pm_store of int * int  (* slot, value *)
  | S_vol_store of int * int
  | S_flush_pm of int
  | S_fence
  | S_helper_pm of int * int
  | S_helper_vol of int * int
  | S_emit_load of int

let gen_steps : step list QCheck.Gen.t =
  let open QCheck.Gen in
  let slot = int_range 0 3 in
  let value = int_range 1 1000 in
  list_size (int_range 1 25)
    (oneof
       [
         map2 (fun s x -> S_pm_store (s, x)) slot value;
         map2 (fun s x -> S_vol_store (s, x)) slot value;
         map (fun s -> S_flush_pm s) slot;
         return S_fence;
         map2 (fun s x -> S_helper_pm (s, x)) slot value;
         map2 (fun s x -> S_helper_vol (s, x)) slot value;
         map (fun s -> S_emit_load s) slot;
       ])

let program_of_steps steps : Program.t =
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "h" [ "p"; "x" ] ~body:(fun fb ->
        store fb ~addr:(Value.reg "p") (Value.reg "x");
        ret_void fb)
  in
  let _ =
    func b "main" [] ~body:(fun fb ->
        let pm = call fb "pm_alloc" [ i 256 ] in
        let vol = call fb "malloc" [ i 256 ] in
        let pm_slot k = gep fb pm (i (k * 64)) in
        let vol_slot k = gep fb vol (i (k * 8)) in
        List.iter
          (function
            | S_pm_store (s, x) -> store fb ~addr:(pm_slot s) (i x)
            | S_vol_store (s, x) -> store fb ~addr:(vol_slot s) (i x)
            | S_flush_pm s -> flush fb (pm_slot s)
            | S_fence -> fence fb ()
            | S_helper_pm (s, x) -> call_void fb "h" [ pm_slot s; i x ]
            | S_helper_vol (s, x) -> call_void fb "h" [ vol_slot s; i x ]
            | S_emit_load s -> call_void fb "emit" [ load fb (pm_slot s) ])
          steps;
        ret_void fb)
  in
  let p = Builder.program b in
  Validate.check_exn p;
  p

let arb_buggy =
  QCheck.make
    QCheck.Gen.(map program_of_steps gen_steps)
    ~print:Printer.to_string

let workload t = ignore (Interp.call t "main" [])

let repair_with options p =
  Driver.repair ~options ~name:"random" ~workload p

let effective_and_harmless (r : Driver.result) =
  Verify.effective r.Driver.verification
  && Verify.harm_free r.Driver.verification

let prop_repair_complete_and_harmless =
  QCheck.Test.make ~name:"repair: complete and harmless (Full-AA)" ~count:60
    arb_buggy
    (fun p -> effective_and_harmless (repair_with Driver.default_options p))

let prop_repair_trace_aa =
  QCheck.Test.make ~name:"repair: complete and harmless (Trace-AA)" ~count:40
    arb_buggy
    (fun p ->
      effective_and_harmless
        (repair_with { Driver.default_options with oracle = Driver.Trace_aa } p))

let prop_repair_no_hoisting =
  QCheck.Test.make ~name:"repair: complete and harmless (intra only)"
    ~count:40 arb_buggy
    (fun p ->
      effective_and_harmless
        (repair_with { Driver.default_options with hoisting = false } p))

let prop_reduction_preserves_outcome =
  QCheck.Test.make ~name:"fix reduction never changes the outcome" ~count:30
    arb_buggy
    (fun p ->
      let on = repair_with Driver.default_options p in
      let off =
        repair_with { Driver.default_options with reduction = false } p
      in
      effective_and_harmless on && effective_and_harmless off)

let prop_trace_file_plan_equivalence =
  (* the CLI path: serializing the trace to disk and planning from the
     parsed reports yields the same fixes as planning in-process *)
  QCheck.Test.make ~name:"on-disk trace reproduces the in-process plan"
    ~count:25 arb_buggy
    (fun p ->
      let t = Machine.create Machine.default_config p in
      workload t;
      Machine.exit_check t;
      let native_bugs = Machine.bugs t in
      (* round-trip the whole trace through the native on-disk dialect *)
      let file =
        Tracefile.of_string Tracefile.Pmemcheck
          (Tracefile.to_string Tracefile.Pmemcheck
             {
               Tracefile.events = Machine.trace t;
               stats = Machine.site_stats t;
               bugs = Machine.raw_bugs t;
             })
      in
      let plan_of bugs stats =
        let oracle = Hippo_alias.Oracle.trace_aa stats in
        let plan, _, _ = Driver.plan ~oracle p bugs in
        List.sort String.compare (List.map Fix.to_string plan.Fix.fixes)
      in
      List.map Trace.to_line file.Tracefile.events
      = List.map Trace.to_line (Machine.trace t)
      && plan_of native_bugs (Machine.site_stats t)
         = plan_of (Report.dedup file.Tracefile.bugs) file.Tracefile.stats)

let prop_repair_idempotent =
  QCheck.Test.make ~name:"repairing a repaired program changes nothing"
    ~count:25 arb_buggy
    (fun p ->
      let r1 = repair_with Driver.default_options p in
      let r2 = repair_with Driver.default_options r1.Driver.repaired in
      r2.Driver.bugs = [] && List.length r2.Driver.plan.Fix.fixes = 0)

(* ------------------------------------------------------------------ *)
(* Deterministic end-to-end checks *)

let test_driver_summary_fields () =
  let p = program_of_steps [ S_pm_store (0, 1); S_helper_pm (1, 2) ] in
  let r = repair_with Driver.default_options p in
  Alcotest.(check bool) "found bugs" true (r.Driver.bugs <> []);
  Alcotest.(check bool) "sized" true (r.Driver.input_instrs > 0);
  Alcotest.(check bool) "grew" true (r.Driver.output_instrs > r.Driver.input_instrs);
  Alcotest.(check bool) "traced" true (r.Driver.trace_events > 0);
  Alcotest.(check bool) "timed" true (r.Driver.time_s >= 0.0);
  Alcotest.(check bool) "memory" true (r.Driver.peak_heap_bytes > 0)

let test_driver_no_bugs_no_fixes () =
  let p =
    program_of_steps [ S_pm_store (0, 1); S_flush_pm 0; S_fence ]
  in
  let r = repair_with Driver.default_options p in
  Alcotest.(check int) "no bugs" 0 (List.length r.Driver.bugs);
  Alcotest.(check int) "no fixes" 0 (List.length r.Driver.plan.Fix.fixes);
  Alcotest.(check int) "program unchanged" r.Driver.input_instrs
    r.Driver.output_instrs

let test_driver_plan_from_reports () =
  (* the CLI's trace-file path: plan from externally parsed reports *)
  let p = program_of_steps [ S_pm_store (0, 7) ] in
  let t = Machine.create Machine.default_config p in
  workload t;
  Machine.exit_check t;
  let bugs = Machine.bugs t in
  let oracle = Hippo_alias.Oracle.of_program p in
  let plan, _, _ = Driver.plan ~oracle p bugs in
  let repaired, _ = Apply.apply ~oracle p plan in
  let t2 = Machine.create Machine.default_config repaired in
  workload t2;
  Machine.exit_check t2;
  Alcotest.(check int) "clean after plan-from-reports" 0
    (List.length (Machine.bugs t2))

let test_quickstart_produces_listing5_output () =
  (* the paper's transformation result, end to end *)
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "update" [ "addr"; "idx"; "val" ] ~body:(fun fb ->
        let a = gep fb (Value.reg "addr") (Value.reg "idx") in
        store fb ~size:1 ~addr:a (Value.reg "val");
        ret_void fb)
  in
  let _ =
    func b "modify" [ "addr" ] ~body:(fun fb ->
        call_void fb "update" [ Value.reg "addr"; i 0; i 42 ];
        ret_void fb)
  in
  let _ =
    func b "foo" [] ~body:(fun fb ->
        let vol = call fb "malloc" [ i 64 ] in
        let pm = call fb "pm_alloc" [ i 64 ] in
        for_ fb "k" ~from:(i 0) ~below:(i 10) ~body:(fun _ ->
            call_void fb "modify" [ vol ]);
        call_void fb "modify" [ pm ];
        crash fb;
        ret_void fb)
  in
  let p = Builder.program b in
  let r =
    Driver.repair ~name:"listing5"
      ~workload:(fun t -> ignore (Interp.call t "foo" []))
      p
  in
  Alcotest.(check bool) "modify_PM created" true
    (Program.mem r.Driver.repaired "modify_PM");
  Alcotest.(check bool) "update_PM created" true
    (Program.mem r.Driver.repaired "update_PM");
  Alcotest.(check bool) "original modify kept" true
    (Program.mem r.Driver.repaired "modify");
  Alcotest.(check int) "exactly one hoist" 1 (Fix.count_hoisted r.Driver.plan);
  Alcotest.(check bool) "verified" true (effective_and_harmless r)

let string_contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go k = k + n <= h && (String.sub hay k n = needle || go (k + 1)) in
  go 0

let test_diff_reports_insertions () =
  let p = program_of_steps [ S_pm_store (0, 1); S_helper_pm (1, 2) ] in
  let r = repair_with Driver.default_options p in
  let changes = Diff.changes ~original:p ~repaired:r.Driver.repaired in
  Alcotest.(check bool) "nonempty diff" true (changes <> []);
  (* every insertion anchors to an instruction of the original program *)
  List.iter
    (function
      | Diff.Inserted { after = Some a; _ } ->
          Alcotest.(check bool) "anchor exists in original" true
            (Program.find_instr p (Instr.iid a) <> None)
      | _ -> ())
    changes;
  Alcotest.(check int) "insertion count matches growth"
    (r.Driver.output_instrs - r.Driver.input_instrs)
    (Diff.inserted_instrs ~original:p ~repaired:r.Driver.repaired);
  (* the rendered report mentions each inserted mechanism *)
  let report = Diff.report ~original:p ~repaired:r.Driver.repaired in
  Alcotest.(check bool) "mentions a flush" true
    (string_contains ~needle:"flush" report)

and test_diff_clone_attribution () =
  let p =
    let b = Builder.create () in
    let open Builder in
    let _ =
      func b "w" [ "p" ] ~body:(fun fb ->
          store fb ~addr:(Value.reg "p") (i 1);
          ret_void fb)
    in
    let _ =
      func b "main" [] ~body:(fun fb ->
          call_void fb "w" [ call fb "malloc" [ i 8 ] ];
          call_void fb "w" [ call fb "pm_alloc" [ i 8 ] ];
          ret_void fb)
    in
    Builder.program b
  in
  let r = repair_with Driver.default_options p in
  let clones =
    List.filter_map
      (function
        | Diff.New_function { func; cloned_from } ->
            Some (Func.name func, cloned_from)
        | _ -> None)
      (Diff.changes ~original:p ~repaired:r.Driver.repaired)
  in
  Alcotest.(check (list (pair string (option string))))
    "clone attributed to its origin"
    [ ("w_PM", Some "w") ]
    clones

let suite =
  [
    ("summary fields", `Quick, test_driver_summary_fields);
    ("diff reports insertions", `Quick, test_diff_reports_insertions);
    ("diff clone attribution", `Quick, test_diff_clone_attribution);
    ("clean program untouched", `Quick, test_driver_no_bugs_no_fixes);
    ("plan from external reports", `Quick, test_driver_plan_from_reports);
    ("listing 5 end to end", `Quick, test_quickstart_produces_listing5_output);
    QCheck_alcotest.to_alcotest prop_repair_complete_and_harmless;
    QCheck_alcotest.to_alcotest prop_repair_trace_aa;
    QCheck_alcotest.to_alcotest prop_repair_no_hoisting;
    QCheck_alcotest.to_alcotest prop_reduction_preserves_outcome;
    QCheck_alcotest.to_alcotest prop_trace_file_plan_equivalence;
    QCheck_alcotest.to_alcotest prop_repair_idempotent;
  ]
