(* Pinned event streams of every repair-pipeline entry point on
   pmdk-447: [repair] under each detector and with hoisting off,
   [repair_static], [plan] and [optimize] (one run that removes a flush,
   one that removes nothing). Each event is compared on every field but
   its wall-clock [dur_s], and the [?trace] callback must receive
   exactly the returned list, in order. *)

open Hippo_pmcheck
open Hippo_core
open Hippo_pmdk_mini
module Event = Hippo_engine.Event

let case = Bugs.case_447
let prog = Lazy.force case.Case.program
let name = case.Case.id
let workload = case.Case.workload

type ev =
  string * string * int * int * (string * int) list * (string * string) list

let strip (e : Event.t) : ev =
  (e.pass, e.target, e.version, e.parallel, e.counters, e.notes)

let ev_t =
  let pp ppf ((pass, target, version, parallel, counters, notes) : ev) =
    Fmt.pf ppf "%s %s v%d par%d [%a] [%a]" pass target version parallel
      Fmt.(list ~sep:semi (pair ~sep:(any "=") string int))
      counters
      Fmt.(list ~sep:semi (pair ~sep:(any "=") string string))
      notes
  in
  Alcotest.testable pp ( = )

(* Run [f] with a collecting [?trace] callback; check the callback saw
   exactly the events [f] returned, then compare them with [expected]. *)
let check_stream what expected f =
  let seen = ref [] in
  let events = f ~trace:(fun e -> seen := e :: !seen) in
  Alcotest.(check bool)
    (what ^ ": ?trace receives the returned events, in order")
    true
    (List.rev !seen = events);
  Alcotest.(check (list ev_t)) (what ^ ": events") expected
    (List.map strip events)

(* The last event of every repair that has a workload. *)
let verify_dynamic =
  ( "verify",
    name,
    1,
    1,
    [ ("residual_bugs", 0); ("outputs_match", 1); ("pm_working_match", 1) ],
    [ ("mode", "dynamic") ] )

let dynamic_stream =
  [
    ( "locate",
      name,
      0,
      1,
      [ ("bugs", 2); ("trace_events", 90) ],
      [ ("detector", "dynamic") ] );
    ("compute", name, 0, 1, [ ("raw_fixes", 4) ], []);
    ( "reduce",
      name,
      0,
      1,
      [ ("fixes", 2); ("eliminated", 2) ],
      [ ("reduction", "on") ] );
    ( "hoist",
      name,
      0,
      1,
      [ ("fixes", 1); ("hoisted", 1); ("intra", 0) ],
      [ ("oracle", "Full-AA") ] );
    ( "apply",
      name,
      0,
      1,
      [
        ("clones_created", 1);
        ("instrs_added", 7);
        ("output_instrs", 123);
        ("output_version", 1);
      ],
      [] );
    verify_dynamic;
  ]

(* Static reports: locate differs by detector, the rest is shared. *)
let static_locate ~detector ~trace_events =
  ( "locate",
    name,
    0,
    1,
    [
      ("bugs", 4);
      ("trace_events", trace_events);
      ("summaries_computed", 9);
      ("summaries_reused", 5);
    ],
    [ ("detector", detector) ] )

let static_fix_stages =
  [
    ("compute", name, 0, 1, [ ("raw_fixes", 8) ], []);
    ( "reduce",
      name,
      0,
      1,
      [ ("fixes", 2); ("eliminated", 6) ],
      [ ("reduction", "on") ] );
    ( "hoist",
      name,
      0,
      1,
      [ ("fixes", 3); ("hoisted", 1); ("intra", 2) ],
      [ ("oracle", "Full-AA") ] );
    ( "apply",
      name,
      0,
      1,
      [
        ("clones_created", 1);
        ("instrs_added", 9);
        ("output_instrs", 125);
        ("output_version", 1);
      ],
      [] );
  ]

let repair ?(options = Driver.default_options) detector ~trace =
  (Driver.repair ~options ~detector ~trace ~name ~workload prog).Driver.events

let test_repair_dynamic () =
  check_stream "dynamic" dynamic_stream (repair Driver.Dynamic)

let test_repair_static_detector () =
  check_stream "static"
    ((static_locate ~detector:"static" ~trace_events:0 :: static_fix_stages)
    @ [ verify_dynamic ])
    (repair Driver.Static)

let test_repair_both () =
  check_stream "both"
    ((static_locate ~detector:"dynamic+static" ~trace_events:90
     :: static_fix_stages)
    @ [ verify_dynamic ])
    (repair Driver.Both)

let test_repair_no_hoisting () =
  let expected =
    List.map
      (fun ((pass, _, _, _, _, _) as e) ->
        match pass with
        | "hoist" ->
            ( "hoist",
              name,
              0,
              1,
              [ ("fixes", 2); ("hoisted", 0); ("intra", 2) ],
              [ ("hoisting", "off") ] )
        | "apply" ->
            ( "apply",
              name,
              0,
              1,
              [
                ("clones_created", 0);
                ("instrs_added", 2);
                ("output_instrs", 119);
                ("output_version", 1);
              ],
              [] )
        | _ -> e)
      dynamic_stream
  in
  check_stream "hoisting off" expected
    (repair
       ~options:{ Driver.default_options with hoisting = false }
       Driver.Dynamic)

let test_repair_static () =
  check_stream "repair_static"
    ((static_locate ~detector:"static" ~trace_events:0 :: static_fix_stages)
    @ [
        ( "verify",
          name,
          1,
          1,
          [ ("residual_bugs", 0) ],
          [ ("mode", "static") ] );
      ])
    (fun ~trace -> (Driver.repair_static ~trace ~name prog).Driver.s_events)

let test_plan () =
  let m = Machine.create Machine.default_config prog in
  Machine.run_workload m workload;
  let bugs = Machine.bugs m in
  let oracle = Hippo_alias.Oracle.of_program prog in
  let p = "plan" in
  let expected =
    [
      ( "locate",
        p,
        0,
        1,
        [ ("bugs", 2); ("trace_events", 0) ],
        [ ("detector", "preset") ] );
      ("compute", p, 0, 1, [ ("raw_fixes", 4) ], []);
      ( "reduce",
        p,
        0,
        1,
        [ ("fixes", 2); ("eliminated", 2) ],
        [ ("reduction", "on") ] );
      ( "hoist",
        p,
        0,
        1,
        [ ("fixes", 1); ("hoisted", 1); ("intra", 0) ],
        [ ("oracle", "Full-AA") ] );
    ]
  in
  (* [plan] returns no events: the callback is its only stream *)
  let seen = ref [] in
  let _, _, eliminated =
    Driver.plan ~trace:(fun e -> seen := e :: !seen) ~oracle prog bugs
  in
  Alcotest.(check int) "plan: reduction eliminated" 2 eliminated;
  Alcotest.(check (list ev_t)) "plan: events" expected
    (List.rev_map strip !seen)

let optimize repaired ~trace =
  (Driver.optimize ~trace ~name repaired).Driver.t_events

let test_optimize_removes_flush () =
  let r = Driver.repair ~detector:Driver.Static ~name ~workload prog in
  check_stream "optimize (static repair)"
    [
      ( "opt-analyze",
        name,
        0,
        1,
        [ ("bugs", 0); ("candidates", 1) ],
        [
          ( "volatile-flush",
            "entry_write: flush.clwb %t2 at entry_write.c:3 [volatile-flush]"
          );
        ] );
      ( "opt-apply",
        name,
        0,
        1,
        [ ("removed", 1); ("output_instrs", 124); ("output_version", 1) ],
        [] );
      ( "opt-verify",
        name,
        0,
        1,
        [
          ("removed", 1);
          ("residual_bugs", 0);
          ("report_equal", 1);
          ("reverted", 0);
        ],
        [ ("mode", "static") ] );
    ]
    (optimize r.Driver.repaired)

let test_optimize_removes_nothing () =
  let r = Driver.repair ~name ~workload prog in
  check_stream "optimize (dynamic repair)"
    [
      ("opt-analyze", name, 0, 1, [ ("bugs", 0); ("candidates", 0) ], []);
      ( "opt-apply",
        name,
        0,
        1,
        [ ("removed", 0); ("output_instrs", 123); ("output_version", 0) ],
        [] );
      ( "opt-verify",
        name,
        0,
        1,
        [
          ("removed", 0);
          ("residual_bugs", 0);
          ("report_equal", 1);
          ("reverted", 0);
        ],
        [ ("mode", "static") ] );
    ]
    (optimize r.Driver.repaired)

let suite =
  [
    ("repair events: dynamic detector", `Quick, test_repair_dynamic);
    ("repair events: static detector", `Quick, test_repair_static_detector);
    ("repair events: both detectors", `Quick, test_repair_both);
    ("repair events: hoisting off", `Quick, test_repair_no_hoisting);
    ("repair_static events", `Quick, test_repair_static);
    ("plan events", `Quick, test_plan);
    ("optimize events: one flush removed", `Quick, test_optimize_removes_flush);
    ("optimize events: nothing removed", `Quick, test_optimize_removes_nothing);
  ]
