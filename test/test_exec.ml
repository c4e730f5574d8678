(* Differential battery for the compiled execution tier: every observable
   of a run — result, bugs, output, trace, cost, steps, coverage, crash
   points, crash images — must be byte-identical between the interpreter
   oracle ([Interp.run]/[Interp.call]) and the compiled closures
   ([Compile.run]/[Compile.call]), over randomized programs from the
   fuzzer's generator, over the PMDK corpus before and after repair, and
   over hand-built trap edge cases. *)

open Hippo_pmir
open Hippo_pmcheck
module Gen = Hippo_fuzz.Gen
module Driver = Hippo_core.Driver
module Case = Hippo_pmdk_mini.Case

let v = Value.reg
let i = Value.imm

(* ------------------------------------------------------------------ *)
(* Observation: everything a run exposes, in comparable form. *)

type obs = {
  ret : string;
  bugs : string list;
  raw_bugs : string list;
  output : int list;
  trace : string list;
  cost_ns : float;
  steps : int;
  crash_points : int;
  cov : int list;
}

let ret_to_string = function
  | Ok n -> Printf.sprintf "ok:%d" n
  | Error `Stopped_at_crash -> "stopped_at_crash"
  | Error `Aborted -> "aborted"
  | Error `Out_of_fuel -> "out_of_fuel"

(* One host call's outcome, traps and stops included. *)
let call_result call t name args =
  match call t name args with
  | r -> Printf.sprintf "ret:%d" r
  | exception Mem.Trap m -> Printf.sprintf "trap:%s" m
  | exception Interp.Aborted -> "aborted"
  | exception Interp.Out_of_fuel -> "out_of_fuel"
  | exception Machine.Stopped_at_crash -> "stopped_at_crash"

(* The shape of [Interp.run] and [Compile.run]: a test picks its tier by
   passing one of the two. *)
type run =
  ?pm_image:Bytes.t ->
  ?config:Machine.config ->
  Program.t ->
  entry:string ->
  args:int list ->
  Machine.t * (int, [ `Stopped_at_crash | `Aborted | `Out_of_fuel ]) result

let obs_of ~ret ~cov t =
  {
    ret;
    bugs = List.map Report.bug_to_string (Interp.bugs t);
    raw_bugs = List.map Report.bug_to_string (Interp.raw_bugs t);
    output = Interp.output t;
    trace = List.map Trace.to_line (Interp.trace t);
    cost_ns = Interp.cost_ns t;
    steps = Interp.steps t;
    crash_points = Interp.crash_points_hit t;
    cov = Coverage.to_list cov;
  }

let observe (run : run) ~trace ~cost ?(fuel = Machine.default_config.fuel)
    ?stop_at_crash ?(entry = "main") prog =
  let cov = Coverage.create () in
  let config =
    {
      Machine.default_config with
      trace;
      cost;
      fuel;
      stop_at_crash;
      coverage = Some cov;
    }
  in
  let t, ret = run ~config prog ~entry ~args:[] in
  (t, obs_of ~ret:(ret_to_string ret) ~cov t)

(* Polymorphic equality is exact here: strings, ints, and a float compared
   bit-for-bit (cost must accumulate in the same order in both tiers). *)
let parity ~trace ~cost ?fuel ?stop_at_crash prog =
  let obs run = snd (observe run ~trace ~cost ?fuel ?stop_at_crash prog) in
  obs Interp.run = obs Compile.run

(* ------------------------------------------------------------------ *)
(* QCheck properties over the fuzzer's program family. *)

let prop_parity_full =
  QCheck.Test.make ~name:"interp/compiled parity (trace+cost, mixed)"
    ~count:80 Gen.arb_mixed (fun prog ->
      parity ~trace:true ~cost:(Some Cost.default) prog)

let prop_parity_lean =
  QCheck.Test.make ~name:"interp/compiled parity (lean config, mixed)"
    ~count:80 Gen.arb_mixed (fun prog ->
      parity ~trace:false ~cost:None prog)

let prop_parity_crash_family =
  QCheck.Test.make ~name:"interp/compiled parity (crash family)" ~count:60
    Gen.arb_crash (fun prog ->
      parity ~trace:true ~cost:(Some Cost.default) prog
      && parity ~trace:false ~cost:None prog)

let prop_parity_out_of_fuel =
  QCheck.Test.make ~name:"interp/compiled parity at fuel exhaustion"
    ~count:60 Gen.arb_mixed (fun prog ->
      (* tiny budgets stop mid-program: the compiled tier's segment
         pre-charge must give the exact same Out_of_fuel point, steps
         count and trace prefix *)
      List.for_all
        (fun fuel -> parity ~trace:true ~cost:(Some Cost.default) ~fuel prog)
        [ 1; 7; 23; 61; 144 ])

(* Crash images: stop both tiers at every crash point in turn and compare
   the durable and working PM images byte for byte. *)
let prop_parity_crash_images =
  QCheck.Test.make ~name:"interp/compiled crash images at every stop index"
    ~count:25 Gen.arb_crash (fun prog ->
      let count =
        let config = { Machine.default_config with trace = false } in
        let t, _ = Compile.run ~config prog ~entry:"main" ~args:[] in
        Interp.crash_points_hit t
      in
      let snap (run : run) k =
        let config =
          { Machine.default_config with trace = false; stop_at_crash = Some k }
        in
        let t, ret = run ~config prog ~entry:"main" ~args:[] in
        (ret_to_string ret, Interp.crash_image t,
         Mem.working_image (Interp.mem t))
      in
      let ok = ref true in
      for k = 1 to count do
        let r1, p1, w1 = snap Interp.run k
        and r2, p2, w2 = snap Compile.run k in
        if not (r1 = r2 && Bytes.equal p1 p2 && Bytes.equal w1 w2) then
          ok := false
      done;
      !ok)

(* A restart chain shares its compiled code: two siblings restarted from
   one crash image, called in turn (a, b, then a again), must each see
   only their own memory, cost, steps, trace and output, exactly as the
   interpreter's siblings do. Compiled code that kept the machine it was
   built on would run every sibling against that machine's pool. *)
let prop_parity_restart_chain =
  QCheck.Test.make ~name:"interp/compiled parity across a restart chain"
    ~count:40 Gen.arb_crash (fun prog ->
      let count =
        let config = { Machine.default_config with trace = false } in
        let t, _ = Compile.run ~config prog ~entry:"main" ~args:[] in
        Interp.crash_points_hit t
      in
      let chain call k =
        let cov = Coverage.create () in
        let config =
          {
            Machine.default_config with
            trace = true;
            cost = Some Cost.default;
            coverage = Some cov;
          }
        in
        let t = Interp.create config prog in
        Machine.arm_crash t ~at:k;
        let stopped = call_result call t "main" [] in
        let image = Interp.crash_image t in
        let a = Machine.restart ~pm_image:image t in
        let b = Machine.restart ~pm_image:image t in
        let snap m =
          ( obs_of ~ret:"" ~cov m,
            Interp.crash_image m,
            Mem.working_image (Interp.mem m) )
        in
        ( stopped,
          List.map
            (fun m ->
              let ret = call_result call m "main" [] in
              (ret, snap a, snap b))
            [ a; b; a ] )
      in
      List.for_all
        (fun k -> chain Interp.call k = chain Compile.call k)
        (List.init (max 1 count) (fun k -> k + 1)))

(* The real corpus: each PMDK case's workload is one call of its entry.
   Both tiers run every case as written and after repair, with trace,
   cost model and coverage on, and must also leave the same durable
   crash image. *)
let test_corpus_parity () =
  List.iter
    (fun (case : Case.t) ->
      let original = Lazy.force case.Case.program in
      let repaired =
        (Driver.repair ~name:case.Case.id ~workload:case.Case.workload
           original)
          .Driver.repaired
      in
      List.iter
        (fun (label, prog) ->
          let obs run =
            let t, o =
              observe run ~trace:true ~cost:(Some Cost.default)
                ~entry:case.Case.entry prog
            in
            (o, Interp.crash_image t)
          in
          Alcotest.(check bool)
            (case.Case.id ^ " " ^ label)
            true
            (obs Interp.run = obs Compile.run))
        [ ("original", original); ("repaired", repaired) ])
    Hippo_pmdk_mini.Bugs.all

(* ------------------------------------------------------------------ *)
(* Hand-built edge cases: traps must carry identical messages, and the
   machine state left behind must agree. *)

let build_prog emit =
  let b = Builder.create () in
  emit b;
  let p = Builder.program b in
  Validate.check_exn p;
  p

let both_tiers prog name args =
  let run call =
    let t = Interp.create Machine.default_config prog in
    (call_result call t name args, Interp.output t, Interp.steps t)
  in
  let a = run Interp.call and b = run Compile.call in
  Alcotest.(check (triple string (list int) int)) "tier parity" a b;
  a

let test_trap_messages () =
  let p =
    build_prog (fun b ->
        ignore
          (Builder.func b "d" [ "x" ] ~body:(fun fb ->
               Builder.ret fb (Builder.div fb (i 10) (v "x"))));
        ignore
          (Builder.func b "r" [ "x" ] ~body:(fun fb ->
               Builder.ret fb (Builder.rem fb (i 10) (v "x"))));
        ignore
          (Builder.func b "sh" [ "x"; "k" ] ~body:(fun fb ->
               Builder.ret fb (Builder.shl fb (v "x") (v "k")))))
  in
  let msg, _, _ = both_tiers p "d" [ 0 ] in
  Alcotest.(check string) "div msg" "trap:division by zero" msg;
  let msg, _, _ = both_tiers p "r" [ 0 ] in
  Alcotest.(check string) "rem msg" "trap:remainder by zero" msg;
  (* shift amounts mask to [land 62] in both tiers *)
  let r, _, _ = both_tiers p "sh" [ 1; 65 ] in
  Alcotest.(check string) "shift mask"
    (Printf.sprintf "ret:%d" (1 lsl (65 land 62)))
    r;
  let r, _, _ = both_tiers p "sh" [ 3; 62 ] in
  Alcotest.(check string) "shift 62" (Printf.sprintf "ret:%d" (3 lsl 62)) r

let test_arity_and_undefined () =
  let p =
    build_prog (fun b ->
        ignore
          (Builder.func b "f" [ "x" ] ~body:(fun fb -> Builder.ret fb (v "x"))))
  in
  let msg, _, _ = both_tiers p "f" [ 1; 2 ] in
  Alcotest.(check string) "arity msg"
    "trap:@f called with 2 arguments (expects 1)" msg;
  let run call =
    call_result call (Interp.create Machine.default_config p) "nope" []
  in
  Alcotest.(check string) "undefined parity" (run Interp.call)
    (run Compile.call)

let test_abort_and_wild_access () =
  let p =
    build_prog (fun b ->
        ignore
          (Builder.func b "boom" [] ~body:(fun fb ->
               Builder.call_void fb "abort" [];
               Builder.ret fb (i 0)));
        ignore
          (Builder.func b "wild" [] ~body:(fun fb ->
               Builder.ret fb (Builder.load fb (i 0x9999_9999) ~size:8)));
        ignore
          (Builder.func b "null" [] ~body:(fun fb ->
               Builder.store fb ~addr:(i 8) ~size:8 (i 1);
               Builder.ret fb (i 0))))
  in
  ignore (both_tiers p "boom" []);
  ignore (both_tiers p "wild" []);
  ignore (both_tiers p "null" [])

(* A compiled machine accumulates across host calls exactly like the
   interpreter (persistency state, trace, seq numbers span calls). *)
let test_accumulation_across_calls () =
  let prog = Gen.random_mixed (Random.State.make [| 42 |]) in
  let run call =
    let t = Interp.create Machine.default_config prog in
    ignore (call t "main" []);
    ignore (call t "main" []);
    Interp.exit_check t;
    ( List.map Trace.to_line (Interp.trace t),
      List.map Report.bug_to_string (Interp.raw_bugs t),
      Interp.output t )
  in
  let ti, bi, oi = run Interp.call and tc, bc, oc = run Compile.call in
  Alcotest.(check (list string)) "trace" ti tc;
  Alcotest.(check (list string)) "raw bugs" bi bc;
  Alcotest.(check (list int)) "output" oi oc

let suite =
  [
    Alcotest.test_case "trap message parity" `Quick test_trap_messages;
    Alcotest.test_case "arity/undefined parity" `Quick test_arity_and_undefined;
    Alcotest.test_case "abort/wild/null parity" `Quick
      test_abort_and_wild_access;
    Alcotest.test_case "accumulation across calls" `Quick
      test_accumulation_across_calls;
    QCheck_alcotest.to_alcotest prop_parity_full;
    QCheck_alcotest.to_alcotest prop_parity_lean;
    QCheck_alcotest.to_alcotest prop_parity_crash_family;
    QCheck_alcotest.to_alcotest prop_parity_out_of_fuel;
    QCheck_alcotest.to_alcotest prop_parity_crash_images;
    QCheck_alcotest.to_alcotest prop_parity_restart_chain;
    Alcotest.test_case "tier parity over the PMDK corpus" `Quick
      test_corpus_parity;
  ]
