(* Tests for the repair engine: Phase 1 fix computation, Phase 2 fix
   reduction, Phase 3 hoisting, the persistent-subprogram transformation,
   and fix application. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core
open Hippo_engine

let v = Value.reg
let i = Value.imm

let build emit =
  let b = Builder.create () in
  emit b;
  let p = Builder.program b in
  Validate.check_exn p;
  p

let find_bugs ?(entry = "main") p =
  let t = Interp.create Interp.default_config p in
  ignore (Interp.call t entry []);
  Interp.exit_check t;
  (t, Interp.bugs t)

(* one PM store, no flush, no fence *)
let prog_flush_fence () =
  build (fun b ->
      let open Builder in
      let _ =
        func b "main" [] ~body:(fun fb ->
            let pm = call fb "pm_alloc" [ i 64 ] in
            store fb ~addr:pm (i 9);
            ret_void fb)
      in
      ())

(* one PM store, no flush, later fence *)
let prog_missing_flush () =
  build (fun b ->
      let open Builder in
      let _ =
        func b "main" [] ~body:(fun fb ->
            let pm = call fb "pm_alloc" [ i 64 ] in
            store fb ~addr:pm (i 9);
            fence fb ();
            ret_void fb)
      in
      ())

(* one PM store, flushed, never fenced *)
let prog_missing_fence () =
  build (fun b ->
      let open Builder in
      let _ =
        func b "main" [] ~body:(fun fb ->
            let pm = call fb "pm_alloc" [ i 64 ] in
            store fb ~addr:pm (i 9);
            flush fb pm;
            ret_void fb)
      in
      ())

(* ------------------------------------------------------------------ *)
(* Phase 1 *)

let test_phase1_flush_fence () =
  let p = prog_flush_fence () in
  let _, bugs = find_bugs p in
  let fixes = List.concat_map snd (Compute.phase1 p bugs) in
  let has_flush =
    List.exists
      (fun (f : Fix.intra) ->
        match f.Fix.action with Fix.Add_flush _ -> true | _ -> false)
      fixes
  and has_fence =
    List.exists
      (fun (f : Fix.intra) ->
        match f.Fix.action with Fix.Add_fence _ -> true | _ -> false)
      fixes
  in
  Alcotest.(check bool) "flush fix" true has_flush;
  Alcotest.(check bool) "fence fix" true has_fence

let test_phase1_missing_flush_only () =
  let p = prog_missing_flush () in
  let _, bugs = find_bugs p in
  Alcotest.(check bool) "classified missing-flush" true
    (List.for_all (fun (b : Report.bug) -> b.Report.kind = Report.Missing_flush) bugs);
  let fixes = List.concat_map snd (Compute.phase1 p bugs) in
  Alcotest.(check bool) "flush-only fixes" true
    (List.for_all
       (fun (f : Fix.intra) ->
         match f.Fix.action with Fix.Add_flush _ -> true | _ -> false)
       fixes)

let test_phase1_missing_fence_targets_flush () =
  let p = prog_missing_fence () in
  let _, bugs = find_bugs p in
  let bug = List.hd bugs in
  Alcotest.(check bool) "missing-fence" true (bug.Report.kind = Report.Missing_fence);
  let fixes = List.concat_map snd (Compute.phase1 p bugs) in
  match fixes with
  | [ { Fix.after; action = Fix.Add_fence _ } ] ->
      (* the fence is inserted after the ordering flush, not the store *)
      Alcotest.(check bool) "after the flush" true
        (match bug.Report.ordering_flush with
        | Some fl -> Iid.equal fl after
        | None -> false)
  | _ -> Alcotest.fail "expected a single fence fix"

let test_phase1_flush_reuses_store_address () =
  let p = prog_flush_fence () in
  let _, bugs = find_bugs p in
  let bug = List.hd bugs in
  let store_addr =
    match Program.find_instr p bug.Report.store.iid with
    | Some ins -> (
        match Instr.op ins with
        | Instr.Store { addr; _ } -> addr
        | _ -> assert false)
    | None -> assert false
  in
  let fixes = List.concat_map snd (Compute.phase1 p bugs) in
  List.iter
    (fun (f : Fix.intra) ->
      match f.Fix.action with
      | Fix.Add_flush { addr; _ } ->
          Alcotest.(check bool) "same operand" true (Value.equal addr store_addr)
      | _ -> ())
    fixes

(* ------------------------------------------------------------------ *)
(* Phase 2 *)

let test_reduce_merges_duplicates () =
  let p = prog_flush_fence () in
  let _, bugs = find_bugs p in
  (* duplicate every bug: reduction must still emit each fix once *)
  let per_bug = Compute.phase1 p (bugs @ bugs) in
  let reduced = Reduce.phase2 p per_bug in
  let raw = List.fold_left (fun n (_, fs) -> n + List.length fs) 0 per_bug in
  Alcotest.(check bool) "reduced below raw" true (List.length reduced < raw);
  (* distinct fixes only *)
  let rec no_dups = function
    | [] -> true
    | (r : Reduce.reduced) :: rest ->
        (not (List.exists (fun r' -> Fix.intra_equal r.Reduce.fix r'.Reduce.fix) rest))
        && no_dups rest
  in
  Alcotest.(check bool) "no duplicate fixes" true (no_dups reduced);
  (* provenance: the duplicated bug is attached to the same fix *)
  Alcotest.(check bool) "multi-bug provenance" true
    (List.exists (fun (r : Reduce.reduced) -> List.length r.Reduce.bugs >= 2) reduced)

let test_reduce_skips_already_present () =
  (* program that already flushes right after the store: a stale trace
     must not cause a second identical insertion *)
  let p = prog_missing_fence () in
  let stale_bug =
    let _, bugs = find_bugs (prog_missing_flush ()) in
    List.hd bugs
  in
  (* re-key the stale bug onto this program's store *)
  let _, real_bugs = find_bugs p in
  let this_store = (List.hd real_bugs).Report.store in
  let forged = { stale_bug with Report.store = this_store; kind = Report.Missing_flush } in
  let reduced = Reduce.phase2 p [ (forged, Compute.fixes_for p forged) ] in
  Alcotest.(check int) "flush already present -> dropped" 0 (List.length reduced)

let test_reduce_eliminated_metric () =
  let p = prog_flush_fence () in
  let _, bugs = find_bugs p in
  let per_bug = Compute.phase1 p (bugs @ bugs) in
  let reduced = Reduce.phase2 p per_bug in
  Alcotest.(check int) "eliminated count"
    (List.fold_left (fun n (_, fs) -> n + List.length fs) 0 per_bug
    - List.length reduced)
    (Reduce.eliminated ~raw:per_bug ~reduced)

(* ------------------------------------------------------------------ *)
(* Phase 3 + transformation *)

let listing5 () =
  build (fun b ->
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
        func b "main" [] ~body:(fun fb ->
            let vol = call fb "malloc" [ i 64 ] in
            let pm = call fb "pm_alloc" [ i 64 ] in
            for_ fb "k" ~from:(i 0) ~below:(i 10) ~body:(fun _ ->
                call_void fb "modify" [ vol ]);
            call_void fb "modify" [ pm ];
            crash fb;
            ret_void fb)
      in
      ())

let test_heuristic_candidates_stop_at_crash_function () =
  let p = listing5 () in
  let _, bugs = find_bugs p in
  let crash_bug =
    List.find (fun (b : Report.bug) -> b.Report.crash.crash_iid <> None) bugs
  in
  let cands = Heuristic.call_candidates crash_bug in
  (* update's and modify's creating call sites; main (crash frame) excluded *)
  Alcotest.(check int) "two candidates" 2 (List.length cands);
  Alcotest.(check (list string)) "callee order inner-out"
    [ "update"; "modify" ]
    (List.map snd cands)

let test_heuristic_chooses_outermost_max () =
  let p = listing5 () in
  let _, bugs = find_bugs p in
  let oracle = Hippo_alias.Oracle.of_program p in
  let d = Heuristic.decide oracle p (List.hd bugs) in
  match d.Heuristic.choice with
  | Heuristic.At_call { callee; depth; _ } ->
      Alcotest.(check string) "hoists modify" "modify" callee;
      Alcotest.(check int) "depth 2" 2 depth
  | Heuristic.At_store -> Alcotest.fail "expected a hoist"

let test_heuristic_tie_prefers_store () =
  (* PM-only leaf: store site and call site tie; intraprocedural wins *)
  let p =
    build (fun b ->
        let open Builder in
        let _ =
          func b "leaf" [ "p" ] ~body:(fun fb ->
              store fb ~addr:(v "p") (i 4);
              ret_void fb)
        in
        let _ =
          func b "main" [] ~body:(fun fb ->
              let pm = call fb "pm_alloc" [ i 64 ] in
              call_void fb "leaf" [ pm ];
              fence fb ();
              ret_void fb)
        in
        ())
  in
  let _, bugs = find_bugs p in
  let oracle = Hippo_alias.Oracle.of_program p in
  let d = Heuristic.decide oracle p (List.hd bugs) in
  Alcotest.(check bool) "stays at store" true (d.Heuristic.choice = Heuristic.At_store)

let test_transform_clone_reuse () =
  let p = listing5 () in
  let oracle = Hippo_alias.Oracle.of_program p in
  let ctx = Transform.create ~oracle p in
  let c1 = Transform.ensure_clone ctx "modify" in
  let c2 = Transform.ensure_clone ctx "modify" in
  Alcotest.(check string) "same clone" c1 c2;
  Alcotest.(check int) "two functions added (modify_PM, update_PM)" 2
    ctx.Transform.funcs_added;
  let clone = Program.find_exn ctx.Transform.prog c1 in
  let calls = Func.call_sites clone in
  Alcotest.(check bool) "clone calls update_PM" true
    (List.exists (fun (_, callee, _) -> callee = "update_PM") calls)

let test_transform_clone_flushes_pm_stores () =
  let p = listing5 () in
  let oracle = Hippo_alias.Oracle.of_program p in
  let ctx = Transform.create ~oracle p in
  let _ = Transform.ensure_clone ctx "update" in
  let clone = Program.find_exn ctx.Transform.prog "update_PM" in
  let instrs = Func.instrs clone in
  let rec store_then_flush = function
    | a :: b :: rest ->
        (if Instr.is_store a then Instr.is_flush b else true)
        && store_then_flush (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "every store followed by flush" true
    (store_then_flush instrs);
  Alcotest.(check bool) "clone contains a flush" true
    (List.exists Instr.is_flush instrs);
  Alcotest.(check bool) "no fence inside the clone" true
    (not (List.exists Instr.is_fence instrs))

let test_transform_no_reuse_ablation () =
  let p = listing5 () in
  let oracle = Hippo_alias.Oracle.of_program p in
  let f = Program.find_exn p "main" in
  let modify_sites =
    List.filter_map
      (fun (iid, c, _) -> if c = "modify" then Some iid else None)
      (Func.call_sites f)
  in
  let hoist_at ctx cs depth =
    Transform.hoist ctx { Fix.call_site = cs; callee = "modify"; depth }
  in
  let with_reuse = Transform.create ~reuse:true ~oracle p in
  List.iter (fun cs -> hoist_at with_reuse cs 1) modify_sites;
  let without_reuse = Transform.create ~reuse:false ~oracle p in
  List.iter (fun cs -> hoist_at without_reuse cs 1) modify_sites;
  Alcotest.(check bool) "reuse creates fewer functions" true
    (with_reuse.Transform.funcs_added < without_reuse.Transform.funcs_added);
  Validate.check_exn with_reuse.Transform.prog;
  Validate.check_exn without_reuse.Transform.prog

let test_transform_recursive_subprogram_terminates () =
  let p =
    build (fun b ->
        let open Builder in
        let _ =
          func b "rec_write" [ "p"; "n" ] ~body:(fun fb ->
              if_ fb
                (Builder.le fb (v "n") (i 0))
                ~then_:(fun () -> ret_void fb)
                ();
              store fb ~addr:(v "p") (v "n");
              call_void fb "rec_write"
                [ gep fb (v "p") (i 8); Builder.sub fb (v "n") (i 1) ];
              ret_void fb)
        in
        let _ =
          func b "main" [] ~body:(fun fb ->
              let pm = call fb "pm_alloc" [ i 128 ] in
              call_void fb "rec_write" [ pm; i 4 ];
              ret_void fb)
        in
        ())
  in
  let oracle = Hippo_alias.Oracle.of_program p in
  let ctx = Transform.create ~oracle p in
  let c = Transform.ensure_clone ctx "rec_write" in
  let clone = Program.find_exn ctx.Transform.prog c in
  Alcotest.(check bool) "recursive clone calls itself" true
    (List.exists (fun (_, callee, _) -> callee = c) (Func.call_sites clone));
  Validate.check_exn ctx.Transform.prog

(* ------------------------------------------------------------------ *)
(* Apply *)

let test_apply_orders_flush_before_fence () =
  let p = prog_flush_fence () in
  let _, bugs = find_bugs p in
  let oracle = Hippo_alias.Oracle.of_program p in
  let plan, _, _ = Driver.plan ~oracle p bugs in
  let repaired, stats = Apply.apply ~oracle p plan in
  Alcotest.(check int) "one flush" 1 stats.Apply.intra_flushes;
  Alcotest.(check int) "one fence" 1 stats.Apply.intra_fences;
  let f = Program.find_exn repaired "main" in
  let rec scan = function
    | a :: b :: c :: rest ->
        if Instr.is_store a then (
          Alcotest.(check bool) "store; flush; fence" true
            (Instr.is_flush b && Instr.is_fence c))
        else scan (b :: c :: rest)
    | _ -> ()
  in
  scan (Func.instrs f);
  Validate.check_exn repaired

let test_apply_missing_insertion_point_rejected () =
  let p = prog_flush_fence () in
  let ghost =
    {
      Fix.after = Iid.fresh ~func:"main";
      action = Fix.Add_fence { kind = Instr.Sfence };
    }
  in
  let oracle = Hippo_alias.Oracle.of_program p in
  match Apply.apply ~oracle p { Fix.fixes = [ Fix.Intra ghost ]; per_bug = [] } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_apply_portable_style () =
  (* with the runtime linked, portable fixes are pmem_flush/pmem_drain
     calls — the developer-style fix of Fig. 3's first row *)
  let b = Builder.create () in
  Hippo_pmdk_mini.Runtime.add b;
  let open Builder in
  let _ =
    func b "main" [] ~body:(fun fb ->
        let pm = call fb "pm_alloc" [ i 64 ] in
        store fb ~addr:pm (i 9);
        ret_void fb)
  in
  let p = Builder.program b in
  let _, bugs = find_bugs p in
  let oracle = Hippo_alias.Oracle.of_program p in
  let plan, _, _ = Driver.plan ~oracle p bugs in
  let repaired, stats = Apply.apply ~style:Apply.Portable ~oracle p plan in
  Alcotest.(check int) "one flush" 1 stats.Apply.intra_flushes;
  let f = Program.find_exn repaired "main" in
  let callees =
    List.filter_map
      (fun ins ->
        match Instr.op ins with
        | Instr.Call { callee; _ } -> Some callee
        | _ -> None)
      (Func.instrs f)
  in
  Alcotest.(check bool) "calls pmem_flush" true (List.mem "pmem_flush" callees);
  Alcotest.(check bool) "calls pmem_drain" true (List.mem "pmem_drain" callees);
  (* and the repaired program is clean *)
  let t = Interp.create Interp.default_config repaired in
  ignore (Interp.call t "main" []);
  Interp.exit_check t;
  Alcotest.(check int) "portable fix is effective" 0
    (List.length (Interp.bugs t))

let test_apply_portable_falls_back_without_runtime () =
  let p = prog_flush_fence () in
  let _, bugs = find_bugs p in
  let oracle = Hippo_alias.Oracle.of_program p in
  let plan, _, _ = Driver.plan ~oracle p bugs in
  let repaired, _ = Apply.apply ~style:Apply.Portable ~oracle p plan in
  let f = Program.find_exn repaired "main" in
  Alcotest.(check bool) "direct clwb emitted" true
    (List.exists Instr.is_flush (Func.instrs f))

let test_apply_preserves_original_iids () =
  let p = prog_flush_fence () in
  let _, bugs = find_bugs p in
  let oracle = Hippo_alias.Oracle.of_program p in
  let plan, _, _ = Driver.plan ~oracle p bugs in
  let repaired, _ = Apply.apply ~oracle p plan in
  List.iter
    (fun (b : Report.bug) ->
      Alcotest.(check bool) "buggy store still addressable" true
        (Program.find_instr repaired b.Report.store.iid <> None))
    bugs

let suite =
  [
    ("phase1: flush&fence", `Quick, test_phase1_flush_fence);
    ("phase1: missing flush only", `Quick, test_phase1_missing_flush_only);
    ("phase1: fence after flush", `Quick, test_phase1_missing_fence_targets_flush);
    ("phase1: flush reuses operand", `Quick, test_phase1_flush_reuses_store_address);
    ("phase2: merges duplicates", `Quick, test_reduce_merges_duplicates);
    ("phase2: skips already present", `Quick, test_reduce_skips_already_present);
    ("phase2: eliminated metric", `Quick, test_reduce_eliminated_metric);
    ("phase3: candidate walk", `Quick, test_heuristic_candidates_stop_at_crash_function);
    ("phase3: picks max score", `Quick, test_heuristic_chooses_outermost_max);
    ("phase3: tie prefers store", `Quick, test_heuristic_tie_prefers_store);
    ("transform: clone reuse", `Quick, test_transform_clone_reuse);
    ("transform: clone flush placement", `Quick, test_transform_clone_flushes_pm_stores);
    ("transform: reuse ablation", `Quick, test_transform_no_reuse_ablation);
    ("transform: recursion terminates", `Quick, test_transform_recursive_subprogram_terminates);
    ("apply: flush before fence", `Quick, test_apply_orders_flush_before_fence);
    ("apply: missing point rejected", `Quick, test_apply_missing_insertion_point_rejected);
    ("apply: portable style", `Quick, test_apply_portable_style);
    ("apply: portable fallback", `Quick, test_apply_portable_falls_back_without_runtime);
    ("apply: original iids preserved", `Quick, test_apply_preserves_original_iids);
  ]
