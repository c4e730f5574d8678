module Pmir_gen = Hippo_fuzz.Gen
(* The domain work pool, and the determinism battery for the parallel
   repair engine: the same inputs must produce the same fix plans,
   repaired programs and event sequences at every --jobs setting. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core
module Pool = Hippo_parallel.Pool
module E = Hippo_engine

let i = Value.imm

(* ------------------------------------------------------------------ *)
(* Pool units *)

let square x = x * x

let test_map_ordering () =
  Pool.run ~domains:4 (fun p ->
      let xs = List.init 100 Fun.id in
      (* stagger the work so early submissions finish last: collection
         must still be in submission order *)
      let f x =
        let acc = ref 0 in
        for k = 1 to (100 - x) * 200 do
          acc := !acc + k
        done;
        ignore !acc;
        square x
      in
      Alcotest.(check (list int))
        "submission order" (List.map square xs) (Pool.map p f xs))

let test_empty_and_singleton () =
  Pool.run ~domains:3 (fun p ->
      Alcotest.(check (list int)) "empty" [] (Pool.map p square []);
      Alcotest.(check (list int)) "singleton" [ 49 ] (Pool.map p square [ 7 ]))

let test_exception_propagation () =
  Pool.run ~domains:3 (fun p ->
      (match
         Pool.map p
           (fun x -> if x mod 2 = 0 then failwith (Fmt.str "boom%d" x) else x)
           [ 1; 2; 3; 4 ]
       with
      | _ -> Alcotest.fail "expected the worker exception to propagate"
      | exception Failure m ->
          Alcotest.(check string) "first failing submission wins" "boom2" m);
      (* a failed map must not poison the pool *)
      Alcotest.(check (list int))
        "pool reusable after failure" [ 2; 4; 6 ]
        (Pool.map p (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_pool_reuse () =
  Pool.run ~domains:2 (fun p ->
      for n = 1 to 5 do
        Alcotest.(check int)
          (Fmt.str "map_reduce sum to %d" n)
          (n * (n + 1) / 2)
          (Pool.map_reduce p ~map:Fun.id ~reduce:( + ) ~init:0
             (List.init n (fun k -> k + 1)))
      done)

let test_single_domain_fallback () =
  let p = Pool.create ~domains:1 () in
  Alcotest.(check int) "width clamped to 1" 1 (Pool.domains p);
  Alcotest.(check (list int))
    "serial map" [ 1; 4; 9 ]
    (Pool.map p square [ 1; 2; 3 ]);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *)

let test_nested_pools () =
  (* the sweep shape: verify opens its own 2-domain pool inside a worker
     task; caller-helps draining must not deadlock *)
  Pool.run ~domains:3 (fun outer ->
      Alcotest.(check (list int))
        "nested maps" [ 6; 12; 18; 24 ]
        (Pool.map outer
           (fun x ->
             Pool.run ~domains:2 (fun inner ->
                 List.fold_left ( + ) 0
                   (Pool.map inner (fun y -> x * y) [ 1; 2; 3 ])))
           [ 1; 2; 3; 4 ]))

let test_default_domains () =
  let d = Pool.default_domains () in
  Alcotest.(check bool) "at least one domain" true (d >= 1);
  (* when the CI matrix pins HIPPO_JOBS, the pool must honor it *)
  match Sys.getenv_opt "HIPPO_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Alcotest.(check int) "HIPPO_JOBS honored" n d
      | _ -> ())
  | None -> ()

let prop_map_matches_list_map =
  QCheck.Test.make ~name:"Pool.map = List.map at every width" ~count:100
    QCheck.(pair (int_range 1 4) (small_list int))
    (fun (domains, xs) ->
      let f x = (3 * x) - 1 in
      Pool.run ~domains (fun p -> Pool.map p f xs) = List.map f xs)

(* ------------------------------------------------------------------ *)
(* Determinism battery: fix --jobs N is invisible in every output *)

let repair_at_jobs jobs p =
  Driver.repair
    ~options:{ Driver.default_options with jobs }
    ~name:"par" ~workload:Pmir_gen.workload p

(* everything observable except wall-clock timings and the per-stage
   domain budget (which legitimately differs across --jobs settings) *)
let fingerprint (r : Driver.result) =
  ( Printer.to_string r.Driver.repaired,
    List.map Fix.to_string r.Driver.plan.Fix.fixes,
    List.map Report.bug_to_string r.Driver.bugs,
    List.map
      (fun (e : E.Event.t) ->
        (e.E.Event.pass, e.E.Event.target, e.E.Event.version,
         e.E.Event.counters, e.E.Event.notes))
      r.Driver.events )

let prop_fix_deterministic_across_jobs =
  QCheck.Test.make
    ~name:"repair at --jobs 1/2/4: identical plans, programs and events"
    ~count:20 Pmir_gen.arb_mixed
    (fun p ->
      let f1 = fingerprint (repair_at_jobs 1 p) in
      f1 = fingerprint (repair_at_jobs 2 p)
      && f1 = fingerprint (repair_at_jobs 4 p))

let test_verify_event_parallel_field () =
  let p = Pmir_gen.program_of_steps [ Pmir_gen.S_store_raw (0, 5) ] in
  let parallel_of (r : Driver.result) pass =
    (List.find (fun (e : E.Event.t) -> e.E.Event.pass = pass) r.Driver.events)
      .E.Event.parallel
  in
  let serial = repair_at_jobs 1 p and par = repair_at_jobs 4 p in
  Alcotest.(check int) "serial verify" 1 (parallel_of serial "verify");
  Alcotest.(check int) "parallel verify uses 2 domains" 2
    (parallel_of par "verify");
  Alcotest.(check int) "locate stays serial" 1 (parallel_of par "locate")

(* ------------------------------------------------------------------ *)
(* Parallel corpus sweep *)

(* Program versions are cache-relative: the serial sweep's shared cache
   numbers all cases consecutively, while per-domain caches restart per
   domain. Rebasing each case's versions on its first event makes the
   sequences comparable; everything else must match exactly. *)
let rebased_events (r : Driver.result) =
  match r.Driver.events with
  | [] -> []
  | first :: _ ->
      let base = first.E.Event.version in
      List.map
        (fun (e : E.Event.t) ->
          ( e.E.Event.pass, e.E.Event.target, e.E.Event.version - base,
            List.map
              (fun (k, v) ->
                if k = "output_version" then (k, v - base) else (k, v))
              e.E.Event.counters,
            e.E.Event.notes ))
        r.Driver.events

let corpus_fingerprint results =
  List.map
    (fun ((c : Hippo_pmdk_mini.Case.t), (r : Driver.result)) ->
      ( c.Hippo_pmdk_mini.Case.id,
        Printer.to_string r.Driver.repaired,
        List.map Fix.to_string r.Driver.plan.Fix.fixes,
        List.map Report.bug_to_string r.Driver.bugs,
        rebased_events r ))
    results

let test_sweep_matches_serial () =
  let cases = Hippo_pmdk_mini.Bugs.all in
  let serial = Hippo_bugstudy.Sweep.corpus ~jobs:1 cases in
  let par = Hippo_bugstudy.Sweep.corpus ~jobs:4 cases in
  Alcotest.(check bool)
    "identical results in corpus order" true
    (corpus_fingerprint serial = corpus_fingerprint par)

let test_crashsim_sweep_jobs_identical () =
  (* the pmcheck crash-state enumeration fans out over the pool *)
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "init" [] ~body:(fun fb ->
        let c = call fb "pm_alloc" [ i 128 ] in
        store fb ~addr:c (i 0);
        flush fb c;
        fence fb ();
        ret fb c)
  in
  let _ =
    func b "bump" [] ~body:(fun fb ->
        let c = call fb "pm_base" [] in
        let x = add fb (load fb c) (i 1) in
        store fb ~addr:c x;
        flush fb c;
        fence fb ();
        crash fb;
        ret_void fb)
  in
  let _ =
    func b "check" [] ~body:(fun fb ->
        let c = call fb "pm_base" [] in
        ret fb (le fb (i 0) (load fb c)))
  in
  let p = Builder.program b in
  Validate.check_exn p;
  let setup = [ ("init", []); ("bump", []); ("bump", []); ("bump", []) ] in
  let serial = Crashsim.sweep ~jobs:1 p ~setup ~checker:"check" ~checker_args:[] in
  let par = Crashsim.sweep ~jobs:4 p ~setup ~checker:"check" ~checker_args:[] in
  Alcotest.(check int) "three crash points" 3 (List.length serial);
  Alcotest.(check bool) "verdicts identical" true (serial = par)

(* ------------------------------------------------------------------ *)
(* Verify: crash-stopped workloads must not report at-exit phantoms *)

let crash_mid_transaction_prog () =
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "main" [] ~body:(fun fb ->
        let pm = call fb "pm_alloc" [ i 64 ] in
        store fb ~addr:pm (i 7);
        crash fb;
        flush fb pm;
        fence fb ();
        ret_void fb)
  in
  let p = Builder.program b in
  Validate.check_exn p;
  p

let test_verify_crash_stop_skips_exit_check () =
  let p = crash_mid_transaction_prog () in
  let workload t =
    Machine.arm_crash t ~at:1;
    ignore (Interp.call t "main" [])
  in
  let o =
    Verify.check ~jobs:1 ~workload ~config:Machine.default_config ~original:p
      ~repaired:p
  in
  (* the store is legitimately unpersisted at the crash point the run
     stopped at — but the run never exited, so the implicit at-exit crash
     point must not also fire *)
  Alcotest.(check int) "one residual bug, at the crash point" 1
    (List.length o.Verify.residual_bugs);
  Alcotest.(check bool) "no at-exit phantom report" true
    (List.for_all
       (fun (b : Report.bug) -> b.Report.crash.Report.crash_iid <> None)
       o.Verify.residual_bugs);
  Alcotest.(check bool) "state comparison still runs" true (Verify.harm_free o)

(* The locate stage keeps the same rule: a detector run stopped at a crash
   point reports the store unpersisted there, and nothing at <exit>. *)
let test_detector_crash_stop_skips_exit_check () =
  let p = crash_mid_transaction_prog () in
  let workload t =
    Machine.arm_crash t ~at:1;
    ignore (Interp.call t "main" [])
  in
  let r = Driver.repair ~name:"crash-stop" ~workload p in
  Alcotest.(check int) "one bug, at the crash point" 1
    (List.length r.Driver.bugs);
  Alcotest.(check bool) "no at-exit report" true
    (List.for_all
       (fun (b : Report.bug) -> b.Report.crash.Report.crash_iid <> None)
       r.Driver.bugs)

let suite =
  [
    ("pool map ordering", `Quick, test_map_ordering);
    ("pool empty/singleton", `Quick, test_empty_and_singleton);
    ("pool exception propagation", `Quick, test_exception_propagation);
    ("pool reuse", `Quick, test_pool_reuse);
    ("pool single-domain fallback", `Quick, test_single_domain_fallback);
    ("pool nested", `Quick, test_nested_pools);
    ("pool default domains", `Quick, test_default_domains);
    QCheck_alcotest.to_alcotest prop_map_matches_list_map;
    QCheck_alcotest.to_alcotest prop_fix_deterministic_across_jobs;
    ("verify event parallel field", `Quick, test_verify_event_parallel_field);
    ("corpus sweep matches serial", `Quick, test_sweep_matches_serial);
    ("crashsim sweep jobs identical", `Quick, test_crashsim_sweep_jobs_identical);
    ("verify skips exit check after crash stop", `Quick,
     test_verify_crash_stop_skips_exit_check);
    ("detector skips exit check after crash stop", `Quick,
     test_detector_crash_stop_skips_exit_check);
  ]
