(* Tests for the Andersen points-to analysis and the two alias oracles
   (Full-AA and Trace-AA) that drive the hoisting heuristic. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_alias

let v = Value.reg
let i = Value.imm

(* The paper's Listing 5/6 program: the canonical scoring example. *)
let listing5 () =
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "update" [ "addr"; "idx"; "val" ] ~body:(fun fb ->
        let a = gep fb (v "addr") (v "idx") in
        store fb ~size:1 ~addr:a (v "val");
        ret_void fb)
  in
  let _ =
    func b "modify" [ "addr" ] ~body:(fun fb ->
        call_void fb "update" [ v "addr"; i 0; i 42 ];
        ret_void fb)
  in
  let _ =
    func b "foo" [] ~body:(fun fb ->
        let vol = call fb "malloc" [ i 64 ] in
        let pm = call fb "pm_alloc" [ i 64 ] in
        for_ fb "k" ~from:(i 0) ~below:(i 50) ~body:(fun _ ->
            call_void fb "modify" [ vol ]);
        call_void fb "modify" [ pm ];
        crash fb;
        ret_void fb)
  in
  Builder.program b

let test_points_to_listing5 () =
  let p = listing5 () in
  let a = Andersen.analyze p in
  (* %addr in update aliases both allocations *)
  let n = Andersen.Var ("update", "addr") in
  Alcotest.(check int) "update addr: 1 pm" 1 (Andersen.pm_count a n);
  Alcotest.(check int) "update addr: 1 vol" 1 (Andersen.vol_count a n);
  (* %addr in modify likewise *)
  let m = Andersen.Var ("modify", "addr") in
  Alcotest.(check int) "modify addr: 1 pm" 1 (Andersen.pm_count a m);
  Alcotest.(check int) "modify addr: 1 vol" 1 (Andersen.vol_count a m);
  Alcotest.(check bool) "update addr may be pm" true
    (Andersen.may_be_pm a ~func:"update" (v "addr"));
  Alcotest.(check bool) "idx is not a pointer" false
    (Andersen.is_pointer a ~func:"update" (v "idx"))

let test_gep_propagates () =
  let p = listing5 () in
  let a = Andersen.analyze p in
  (* the gep result in update points where addr points *)
  let f = Program.find_exn p "update" in
  let gep_dst =
    List.find_map
      (fun ins ->
        match Instr.op ins with Instr.Gep { dst; _ } -> Some dst | _ -> None)
      (Func.instrs f)
    |> Option.get
  in
  let g = Andersen.Var ("update", gep_dst) in
  Alcotest.(check int) "gep: pm flows" 1 (Andersen.pm_count a g);
  Alcotest.(check int) "gep: vol flows" 1 (Andersen.vol_count a g)

let test_heap_contents_flow () =
  (* a pointer stored through one variable and loaded through another *)
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "main" [] ~body:(fun fb ->
        let cell = call fb "malloc" [ i 8 ] in
        let pm = call fb "pm_alloc" [ i 8 ] in
        store fb ~addr:cell pm;
        let out = load fb cell in
        store fb ~addr:out (i 1);
        ret_void fb)
  in
  let p = Builder.program b in
  let a = Andersen.analyze p in
  let f = Program.find_exn p "main" in
  let loads =
    List.filter_map
      (fun ins ->
        match Instr.op ins with Instr.Load { dst; _ } -> Some dst | _ -> None)
      (Func.instrs f)
  in
  let out = List.hd loads in
  Alcotest.(check int) "loaded pointer is pm" 1
    (Andersen.pm_count a (Andersen.Var ("main", out)))

let test_retval_flow () =
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "mk" [] ~body:(fun fb -> ret fb (call fb "pm_alloc" [ i 8 ]))
  in
  let _ =
    func b "main" [] ~body:(fun fb ->
        let p = call fb "mk" [] in
        store fb ~addr:p (i 3);
        ret_void fb)
  in
  let p = Builder.program b in
  let a = Andersen.analyze p in
  let f = Program.find_exn p "main" in
  let dst =
    List.find_map
      (fun ins ->
        match Instr.op ins with
        | Instr.Call { dst; callee = "mk"; _ } -> dst
        | _ -> None)
      (Func.instrs f)
    |> Option.get
  in
  Alcotest.(check int) "return value flows" 1
    (Andersen.pm_count a (Andersen.Var ("main", dst)))

let test_global_contents_flow () =
  let b = Builder.create () in
  let open Builder in
  Builder.global b "slot" 8;
  let _ =
    func b "setup" [] ~body:(fun fb ->
        store fb ~addr:(Value.global "slot") (call fb "pm_alloc" [ i 8 ]);
        ret_void fb)
  in
  let _ =
    func b "user" [] ~body:(fun fb ->
        let p = load fb (Value.global "slot") in
        store fb ~addr:p (i 1);
        ret_void fb)
  in
  let p = Builder.program b in
  let a = Andersen.analyze p in
  let f = Program.find_exn p "user" in
  let dst =
    List.find_map
      (fun ins ->
        match Instr.op ins with Instr.Load { dst; _ } -> Some dst | _ -> None)
      (Func.instrs f)
    |> Option.get
  in
  Alcotest.(check int) "pointer via global" 1
    (Andersen.pm_count a (Andersen.Var ("user", dst)))

(* ------------------------------------------------------------------ *)
(* Oracles on Listing 6's scoring *)

let run_traced p =
  let t = Machine.create Machine.default_config p in
  ignore (Interp.call t "foo" []);
  Machine.exit_check t;
  t

let store_iid_in p fname =
  let f = Program.find_exn p fname in
  List.find_map
    (fun ins -> if Instr.is_store ins then Some (Instr.iid ins) else None)
    (Func.instrs f)
  |> Option.get

let call_iid_in p fname ~callee =
  let f = Program.find_exn p fname in
  List.find_map
    (fun (iid, c, _) -> if c = callee then Some iid else None)
    (Func.call_sites f)
  |> Option.get

let listing6_scores (oracle : Oracle.t) p =
  let store = store_iid_in p "update" in
  let cs_update = call_iid_in p "modify" ~callee:"update" in
  (* the PM call site is the second call to modify in foo *)
  let f = Program.find_exn p "foo" in
  let modify_sites =
    List.filter_map
      (fun (iid, c, _) -> if c = "modify" then Some iid else None)
      (Func.call_sites f)
  in
  let cs_pm = List.nth modify_sites 1 in
  ( oracle.Oracle.store_score p store,
    oracle.Oracle.call_score p cs_update,
    oracle.Oracle.call_score p cs_pm )

let test_full_aa_listing6 () =
  let p = listing5 () in
  let oracle = Oracle.of_program p in
  let s, c1, c2 = listing6_scores oracle p in
  Alcotest.(check (option int)) "store site 0" (Some 0) s;
  Alcotest.(check (option int)) "inner call site 0" (Some 0) c1;
  Alcotest.(check (option int)) "pm call site +1" (Some 1) c2

let test_trace_aa_listing6 () =
  let p = listing5 () in
  let t = run_traced p in
  let oracle = Oracle.trace_aa (Machine.site_stats t) in
  let s, c1, c2 = listing6_scores oracle p in
  Alcotest.(check (option int)) "store site 0" (Some 0) s;
  Alcotest.(check (option int)) "inner call site 0" (Some 0) c1;
  Alcotest.(check (option int)) "pm call site +1" (Some 1) c2

let test_no_pointer_args_scores_none () =
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "noptr" [ "n" ] ~body:(fun fb ->
        ignore (add fb (v "n") (i 1));
        ret_void fb)
  in
  let _ =
    func b "foo" [] ~body:(fun fb ->
        call_void fb "noptr" [ i 5 ];
        ret_void fb)
  in
  let p = Builder.program b in
  let oracle = Oracle.of_program p in
  let cs = call_iid_in p "foo" ~callee:"noptr" in
  Alcotest.(check (option int)) "-inf for pointer-free call" None
    (oracle.Oracle.call_score p cs)

let test_store_may_touch_pm_soundness_on_listing5 () =
  (* every dynamically-observed PM store must be flagged by both oracles *)
  let p = listing5 () in
  let t = run_traced p in
  let full = Oracle.of_program p in
  let tr = Oracle.trace_aa (Machine.site_stats t) in
  List.iter
    (function
      | Trace.Store { iid; _ } ->
          Alcotest.(check bool) "full-aa flags it" true
            (full.Oracle.store_may_touch_pm p iid);
          Alcotest.(check bool) "trace-aa flags it" true
            (tr.Oracle.store_may_touch_pm p iid)
      | _ -> ())
    (Machine.trace t)

let test_oracle_soundness_on_corpus () =
  (* same soundness property across every corpus subject *)
  List.iter
    (fun (case : Hippo_pmdk_mini.Case.t) ->
      let p = Lazy.force case.Hippo_pmdk_mini.Case.program in
      let t = Machine.create Machine.default_config p in
      case.Hippo_pmdk_mini.Case.workload t;
      let full = Oracle.of_program p in
      List.iter
        (function
          | Trace.Store { iid; _ } ->
              if not (full.Oracle.store_may_touch_pm p iid) then
                Alcotest.failf "%s: PM store %a missed by Full-AA"
                  case.Hippo_pmdk_mini.Case.id Iid.pp iid
          | _ -> ())
        (Machine.trace t))
    (Hippo_pmdk_mini.Bugs.all @ Hippo_apps.Pclht.cases)

let suite =
  [
    ("points-to on listing 5", `Quick, test_points_to_listing5);
    ("gep propagates", `Quick, test_gep_propagates);
    ("heap contents flow", `Quick, test_heap_contents_flow);
    ("return value flow", `Quick, test_retval_flow);
    ("global contents flow", `Quick, test_global_contents_flow);
    ("full-AA scores listing 6", `Quick, test_full_aa_listing6);
    ("trace-AA scores listing 6", `Quick, test_trace_aa_listing6);
    ("pointer-free call scores -inf", `Quick, test_no_pointer_args_scores_none);
    ("PM-store soundness (listing 5)", `Quick, test_store_may_touch_pm_soundness_on_listing5);
    ("PM-store soundness (corpus)", `Slow, test_oracle_soundness_on_corpus);
  ]
