(* The static durability analyzer: lattice laws, transfer-function
   semantics on minimal programs, interprocedural witness chains, the
   libpmem models, and the soundness property tying it to the dynamic
   checker — every bug the interpreter's exit check reports on a random
   buggy program is covered by a static report at the same site. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_staticcheck

let i = Value.imm

(* ------------------------------------------------------------------ *)
(* Lattice laws *)

let all_elems = Lattice.[ Bot; Persisted; Flush_pending; Dirty; Top ]

let test_lattice_laws () =
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Fmt.str "join idempotent %s" (Lattice.to_string a))
        true
        (Lattice.equal (Lattice.join a a) a);
      Alcotest.(check bool) "bot is identity" true
        (Lattice.equal (Lattice.join Lattice.Bot a) a);
      Alcotest.(check bool) "top absorbs" true
        (Lattice.equal (Lattice.join Lattice.Top a) Lattice.Top);
      List.iter
        (fun b ->
          Alcotest.(check bool) "join commutative" true
            (Lattice.equal (Lattice.join a b) (Lattice.join b a));
          Alcotest.(check bool) "join is lub" true
            (Lattice.leq a (Lattice.join a b));
          List.iter
            (fun c ->
              Alcotest.(check bool) "join associative" true
                (Lattice.equal
                   (Lattice.join a (Lattice.join b c))
                   (Lattice.join (Lattice.join a b) c)))
            all_elems)
        all_elems)
    all_elems

let test_lattice_undurable () =
  Alcotest.(check (list bool))
    "only pending, dirty and top are undurable"
    [ false; false; true; true; true ]
    (List.map Lattice.undurable all_elems)

(* ------------------------------------------------------------------ *)
(* Transfer semantics, observed through whole-program checks on minimal
   straight-line programs: one store to a PM cache line, followed by the
   given durability suffix. *)

let one_store_prog suffix =
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "main" [] ~body:(fun fb ->
        let pm = call fb "pm_alloc" [ i 128 ] in
        store fb ~addr:pm (i 7);
        suffix fb pm;
        ret_void fb)
  in
  let p = Builder.program b in
  Validate.check_exn p;
  p

let static_kinds prog =
  let r = Checker.check ~entries:[ "main" ] prog in
  List.sort compare (List.map (fun (b : Report.bug) -> b.Report.kind) r.Checker.bugs)

let test_transfer_bare_store () =
  Alcotest.(check bool) "missing-flush&fence" true
    (static_kinds (one_store_prog (fun _ _ -> ()))
    = [ Report.Missing_flush_fence ])

let test_transfer_flush_no_fence () =
  let p = one_store_prog (fun fb pm -> Builder.flush fb pm) in
  Alcotest.(check bool) "missing-fence" true
    (static_kinds p = [ Report.Missing_fence ]);
  let r = Checker.check ~entries:[ "main" ] p in
  List.iter
    (fun (b : Report.bug) ->
      Alcotest.(check bool) "ordering flush recorded" true
        (b.Report.ordering_flush <> None))
    r.Checker.bugs

let test_transfer_fence_no_flush () =
  Alcotest.(check bool) "missing-flush" true
    (static_kinds (one_store_prog (fun fb _ -> Builder.fence fb ()))
    = [ Report.Missing_flush ])

let test_transfer_flush_fence_clean () =
  Alcotest.(check bool) "clean" true
    (static_kinds
       (one_store_prog (fun fb pm ->
            Builder.flush fb pm;
            Builder.fence fb ()))
    = [])

let test_transfer_clflush_is_durable_alone () =
  Alcotest.(check bool) "clflush needs no fence" true
    (static_kinds
       (one_store_prog (fun fb pm ->
            Builder.flush fb ~kind:Instr.Clflush pm))
    = [])

let test_transfer_wrong_line_does_not_cover () =
  (* flushing line 1 does not discharge a store on line 0 *)
  Alcotest.(check bool) "wrong-line flush ignored" true
    (static_kinds
       (one_store_prog (fun fb pm ->
            Builder.flush fb (Builder.gep fb pm (i 64));
            Builder.fence fb ()))
    = [ Report.Missing_flush ])

(* The libpmem models: the runtime's ranged-flush loop has a zero-trip
   path a path-insensitive fixpoint cannot exclude, so [pmem_flush] /
   [pmem_persist] calls are modelled as single transfers. A correct
   persist caller must be clean. *)
let runtime_prog suffix =
  let b = Builder.create () in
  Hippo_pmdk_mini.Runtime.add b;
  let open Builder in
  let _ =
    func b "main" [] ~body:(fun fb ->
        let pm = call fb "pm_alloc" [ i 128 ] in
        store fb ~addr:pm (i 7);
        suffix fb pm;
        ret_void fb)
  in
  let p = Builder.program b in
  Validate.check_exn p;
  p

let test_model_pmem_persist_clean () =
  Alcotest.(check bool) "pmem_persist caller is clean" true
    (static_kinds
       (runtime_prog (fun fb pm ->
            Builder.call_void fb "pmem_persist" [ pm; i 64 ]))
    = [])

let test_model_pmem_flush_needs_drain () =
  Alcotest.(check bool) "pmem_flush alone is missing-fence" true
    (static_kinds
       (runtime_prog (fun fb pm ->
            Builder.call_void fb "pmem_flush" [ pm; i 64 ]))
    = [ Report.Missing_fence ]);
  Alcotest.(check bool) "pmem_flush + pmem_drain is clean" true
    (static_kinds
       (runtime_prog (fun fb pm ->
            Builder.call_void fb "pmem_flush" [ pm; i 64 ];
            Builder.call_void fb "pmem_drain" []))
    = [])

(* ------------------------------------------------------------------ *)
(* Interprocedural: witness chains and summary reuse *)

let helper_prog () =
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "h" [ "p" ] ~body:(fun fb ->
        store fb ~addr:(Value.reg "p") (i 1);
        ret_void fb)
  in
  let _ =
    func b "main" [] ~body:(fun fb ->
        let pm = call fb "pm_alloc" [ i 128 ] in
        call_void fb "h" [ pm ];
        call_void fb "h" [ pm ];
        ret_void fb)
  in
  let p = Builder.program b in
  Validate.check_exn p;
  p

let test_interproc_witness_chain () =
  let r = Checker.check ~entries:[ "main" ] (helper_prog ()) in
  Alcotest.(check bool) "found bugs" true (r.Checker.bugs <> []);
  List.iter
    (fun (b : Report.bug) ->
      let stack = b.Report.store.Report.stack in
      Alcotest.(check int) "two frames" 2 (List.length stack);
      let inner = List.hd stack in
      Alcotest.(check string) "innermost frame is the helper" "h"
        inner.Trace.func;
      Alcotest.(check bool) "call site attached" true
        (inner.Trace.callsite <> None);
      Alcotest.(check string) "store is in the helper" "h"
        (Iid.func b.Report.store.Report.iid))
    r.Checker.bugs

let test_interproc_summary_reuse () =
  let r = Checker.check ~entries:[ "main" ] (helper_prog ()) in
  Alcotest.(check bool) "second identical call hits the memo" true
    (r.Checker.stats.summary_hits > 0)

let test_distinct_callsites_distinct_bugs () =
  (* same store instruction through two different call sites must yield
     two distinct static bugs (different witness chains): exactly what
     the repair pipeline needs to consider hoisting over *)
  let r = Checker.check ~entries:[ "main" ] (helper_prog ()) in
  Alcotest.(check int) "one bug per call site" 2 (List.length r.Checker.bugs)

(* ------------------------------------------------------------------ *)
(* Soundness against the dynamic checker: on random buggy programs (the
   driver test generator), every bug the interpreter's exit check
   reports is covered by a static report at the same site. The converse
   need not hold — the static analysis may over-approximate. *)

let prop_static_covers_dynamic =
  QCheck.Test.make ~name:"static covers every dynamic exit bug" ~count:60
    Test_driver.arb_buggy
    (fun p ->
      let t = Machine.create Machine.default_config p in
      ignore (Interp.call t "main" []);
      Machine.exit_check t;
      let dynamic = Machine.bugs t in
      let static_ = (Checker.check ~entries:[ "main" ] p).Checker.bugs in
      let c = Adapter.compare_reports ~static_ ~dynamic in
      c.Adapter.missed = [])

let prop_static_repair_dynamically_clean =
  (* repairing from static reports alone leaves nothing for the dynamic
     checker to find (the workload-free pipeline's acceptance bar) *)
  QCheck.Test.make ~name:"static-driven repair is dynamically clean"
    ~count:30 Test_driver.arb_buggy
    (fun p ->
      let r =
        Hippo_core.Driver.repair
          ~detector:Hippo_core.Driver.Static ~static_entries:[ "main" ]
          ~name:"random-static"
          ~workload:(fun t -> ignore (Interp.call t "main" []))
          p
      in
      Hippo_core.Verify.effective r.Hippo_core.Driver.verification
      && Hippo_core.Verify.harm_free r.Hippo_core.Driver.verification)

let suite =
  [
    ("lattice laws", `Quick, test_lattice_laws);
    ("lattice undurable", `Quick, test_lattice_undurable);
    ("bare store", `Quick, test_transfer_bare_store);
    ("flush without fence", `Quick, test_transfer_flush_no_fence);
    ("fence without flush", `Quick, test_transfer_fence_no_flush);
    ("flush + fence clean", `Quick, test_transfer_flush_fence_clean);
    ("clflush durable alone", `Quick, test_transfer_clflush_is_durable_alone);
    ("wrong-line flush ignored", `Quick, test_transfer_wrong_line_does_not_cover);
    ("pmem_persist model", `Quick, test_model_pmem_persist_clean);
    ("pmem_flush model", `Quick, test_model_pmem_flush_needs_drain);
    ("interprocedural witness chain", `Quick, test_interproc_witness_chain);
    ("summary reuse", `Quick, test_interproc_summary_reuse);
    ("distinct call sites, distinct bugs", `Quick,
     test_distinct_callsites_distinct_bugs);
    QCheck_alcotest.to_alcotest prop_static_covers_dynamic;
    QCheck_alcotest.to_alcotest prop_static_repair_dynamically_clean;
  ]
