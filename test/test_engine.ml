(* Repair-pipeline tests: the versioned analysis cache is invisible
   (cached and cache-disabled runs produce identical fix plans and
   repaired programs), analyses are shared across an ablation sweep
   (Andersen points-to runs exactly once on an unmutated program), and
   the structured event stream reflects the stage order. *)

open Hippo_pmir
open Hippo_core
open Hippo_pmdk_mini
module E = Hippo_engine

let workload = Test_driver.workload

let fix_signature (r : Driver.result) =
  List.sort String.compare (List.map Fix.to_string r.Driver.plan.Fix.fixes)

let same_outcome (a : Driver.result) (b : Driver.result) =
  fix_signature a = fix_signature b
  && Printer.to_string a.Driver.repaired = Printer.to_string b.Driver.repaired

(* ------------------------------------------------------------------ *)
(* The cache is semantically invisible *)

let prop_cache_equivalence =
  QCheck.Test.make
    ~name:"cached and cache-disabled runs agree (plans and programs)"
    ~count:30 Test_driver.arb_buggy
    (fun p ->
      (* cache-disabled: every run builds its own throwaway cache *)
      let fresh = Driver.repair ~name:"fresh" ~workload p in
      (* cached: a shared cache, warmed by a first run, reused by a second *)
      let cache = E.Cache.create () in
      let warm = Driver.repair ~cache ~name:"warm" ~workload p in
      let cached = Driver.repair ~cache ~name:"cached" ~workload p in
      same_outcome fresh warm && same_outcome fresh cached)

let test_cache_equivalence_corpus () =
  let cache = E.Cache.create () in
  List.iter
    (fun (case : Case.t) ->
      let prog = Lazy.force case.Case.program in
      let fresh =
        Driver.repair ~name:case.Case.id ~workload:case.Case.workload prog
      in
      let cached =
        Driver.repair ~cache ~name:case.Case.id ~workload:case.Case.workload
          prog
      in
      Alcotest.(check bool)
        (case.Case.id ^ ": cached run equals cache-disabled run")
        true (same_outcome fresh cached))
    Bugs.all

(* ------------------------------------------------------------------ *)
(* Analysis sharing across an ablation sweep *)

let test_andersen_runs_once_across_sweep () =
  let cache = E.Cache.create () in
  let case = List.hd Bugs.all in
  let prog = Lazy.force case.Case.program in
  List.iter
    (fun options ->
      ignore
        (Driver.repair ~options ~cache ~name:case.Case.id
           ~workload:case.Case.workload prog))
    [
      Driver.default_options;
      { Driver.default_options with hoisting = false };
      { Driver.default_options with reduction = false };
      { Driver.default_options with clone_reuse = false };
    ];
  Alcotest.(check int)
    "Andersen points-to computed once, not once per configuration" 1
    (E.Cache.andersen_runs cache)

let test_apply_bumps_version () =
  let cache = E.Cache.create () in
  let case = List.hd Bugs.all in
  let prog = Lazy.force case.Case.program in
  let r =
    Driver.repair ~cache ~name:case.Case.id ~workload:case.Case.workload prog
  in
  (* the repaired program was registered as a fresh version *)
  Alcotest.(check int) "two versions registered" 2 (E.Cache.versions cache);
  Alcotest.(check int) "input is version 0" 0
    E.Cache.(version (view cache prog));
  Alcotest.(check int) "repaired is version 1" 1
    E.Cache.(version (view cache r.Driver.repaired));
  (* looking the versions up again must not mint new ones *)
  Alcotest.(check int) "lookups do not bump" 2 (E.Cache.versions cache)

(* ------------------------------------------------------------------ *)
(* Structured events *)

let pass_names (events : E.Event.t list) =
  List.map (fun e -> e.E.Event.pass) events

let test_event_stream_order () =
  let p = Test_driver.program_of_steps [ Test_driver.S_pm_store (0, 1) ] in
  let r = Driver.repair ~name:"evt" ~workload p in
  let o = Driver.optimize ~name:"evt" r.Driver.repaired in
  Alcotest.(check (list string))
    "one event per pass, in pipeline order"
    [ "locate"; "compute"; "reduce"; "hoist"; "apply"; "verify" ]
    (pass_names r.Driver.events);
  Alcotest.(check (list string))
    "one event per optimizer pass, in pipeline order"
    [ "opt-analyze"; "opt-apply"; "opt-verify" ]
    (pass_names o.Driver.t_events);
  List.iter
    (fun (e : E.Event.t) ->
      Alcotest.(check bool)
        (e.E.Event.pass ^ " duration is non-negative")
        true (e.E.Event.dur_s >= 0.0))
    (r.Driver.events @ o.Driver.t_events);
  (* verify runs against the bumped program version *)
  let verify = List.nth r.Driver.events 5 in
  Alcotest.(check int) "verify sees version 1" 1 verify.E.Event.version

let test_event_json () =
  let e =
    {
      E.Event.pass = "locate";
      target = "a \"quoted\"\npath";
      version = 0;
      parallel = 2;
      dur_s = 0.25;
      counters = [ ("bugs", 3) ];
      notes = [ ("detector", "dynamic") ];
    }
  in
  Alcotest.(check string)
    "escaped JSON object"
    "{\"pass\":\"locate\",\"target\":\"a \\\"quoted\\\"\\npath\",\"version\":0,\"parallel\":2,\"dur_s\":0.250000,\"counters\":{\"bugs\":3},\"notes\":{\"detector\":\"dynamic\"}}"
    (E.Event.to_json e)

(* ------------------------------------------------------------------ *)
(* Driver satellites *)

let test_repair_static_respects_oracle () =
  let case = List.hd Bugs.all in
  let prog = Lazy.force case.Case.program in
  (* Full-AA: the workload-free pipeline works *)
  let r = Driver.repair_static ~name:case.Case.id prog in
  Alcotest.(check bool) "static bugs found" true (r.Driver.s_bugs <> []);
  Alcotest.(check int) "no residual static bugs" 0
    (List.length r.Driver.s_residual);
  Alcotest.(check bool) "events emitted" true (r.Driver.s_events <> []);
  (* Trace-AA needs a workload trace: a clear, early error *)
  match
    Driver.repair_static
      ~options:{ Driver.default_options with oracle = Driver.Trace_aa }
      ~name:case.Case.id prog
  with
  | _ -> Alcotest.fail "repair_static accepted the Trace-AA oracle"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "error names the Trace-AA oracle" true
        (Test_driver.string_contains ~needle:"Trace-AA" msg)

let test_peak_heap_uses_word_size () =
  let p = Test_driver.program_of_steps [ Test_driver.S_pm_store (0, 1) ] in
  let r = Driver.repair ~name:"heap" ~workload p in
  let word_bytes = Sys.word_size / 8 in
  Alcotest.(check bool) "positive" true (r.Driver.peak_heap_bytes > 0);
  Alcotest.(check int) "multiple of the machine word size" 0
    (r.Driver.peak_heap_bytes mod word_bytes)

let suite =
  [
    ("cache equivalence on the corpus", `Quick, test_cache_equivalence_corpus);
    ( "andersen runs once across ablation sweep",
      `Quick,
      test_andersen_runs_once_across_sweep );
    ("apply bumps the program version", `Quick, test_apply_bumps_version);
    ("event stream order", `Quick, test_event_stream_order);
    ("event JSON rendering", `Quick, test_event_json);
    ( "repair_static respects the oracle choice",
      `Quick,
      test_repair_static_respects_oracle );
    ("peak heap uses machine word size", `Quick, test_peak_heap_uses_word_size);
    QCheck_alcotest.to_alcotest prop_cache_equivalence;
  ]
