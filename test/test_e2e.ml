(* Heavier end-to-end properties:

   - repaired random transactional programs are crash consistent at every
     durability point (the paper's correctness claim, executed);
   - a miniature Fig. 4: the repaired-with-hoisting Redis beats the
     intraprocedural repair under the cost model, and tracks the
     hand-written port. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core

let i = Value.imm

(* ------------------------------------------------------------------ *)
(* Random transactional programs over (value, shadow) cell pairs.

   Each transaction picks a cell, writes a new value to the data word and
   then to its shadow word (one cache line apart), with independently
   randomized flush omissions, fencing, and a durability point at the end.
   The recovery invariant is data == shadow for every cell: a crash
   between the two persists must never be observable, which the correct
   fencing discipline guarantees — unless a flush was omitted. *)

let cells = 3

type txn = { cell : int; value : int; flush_data : bool; flush_shadow : bool }

let gen_txns : txn list QCheck.Gen.t =
  let open QCheck.Gen in
  list_size (int_range 1 8)
    (let* cell = int_range 0 (cells - 1) in
     let* value = int_range 1 1000 in
     let* flush_data = bool in
     let* flush_shadow = bool in
     return { cell; value; flush_data; flush_shadow })

let v' r = Value.reg r

let program_of_txns (txns : txn list) : Program.t =
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "init" [] ~body:(fun fb ->
        let base = call fb "pm_alloc" [ i (cells * 128) ] in
        call_void fb "pmem_persist_init" [ base ];
        ret fb base)
  in
  (* zero + persist everything, in IR, so recovery starts consistent *)
  let _ =
    func b "pmem_persist_init" [ "base" ] ~body:(fun fb ->
        for_ fb "k" ~from:(i 0) ~below:(i (cells * 2)) ~body:(fun k ->
            let slot = gep fb (v' "base") (mul fb k (i 64)) in
            store fb ~addr:slot (i 0);
            flush fb slot);
        fence fb ();
        ret_void fb)
  in
  let _ =
    func b "main" [] ~body:(fun fb ->
        let base = call fb "init" [] in
        List.iter
          (fun t ->
            let data = gep fb base (i (t.cell * 128)) in
            let shadow = gep fb base (i ((t.cell * 128) + 64)) in
            store fb ~addr:data (i t.value);
            if t.flush_data then flush fb data;
            fence fb ();
            store fb ~addr:shadow (i t.value);
            if t.flush_shadow then flush fb shadow;
            fence fb ();
            crash fb)
          txns;
        ret_void fb)
  in
  let _ =
    func b "check" [] ~body:(fun fb ->
        let base = call fb "pm_base" [] in
        for_ fb "k" ~from:(i 0) ~below:(i cells) ~body:(fun k ->
            let off = mul fb k (i 128) in
            let data = load fb (gep fb base off) in
            let shadow = load fb (gep fb base (add fb off (i 64))) in
            if_ fb (ne fb data shadow)
              ~then_:(fun () -> ret fb (i 0))
              ());
        ret fb (i 1))
  in
  let p = Builder.program b in
  Validate.check_exn p;
  p

let arb_txn_prog =
  QCheck.make
    QCheck.Gen.(map program_of_txns gen_txns)
    ~print:Printer.to_string

let prop_repaired_crash_consistent =
  QCheck.Test.make
    ~name:"repaired transactional programs are crash consistent" ~count:25
    arb_txn_prog
    (fun p ->
      let r =
        Driver.repair ~name:"txn"
          ~workload:(fun t -> ignore (Interp.call t "main" []))
          p
      in
      Verify.effective r.Driver.verification
      && List.for_all Crashsim.consistent
           (Crashsim.sweep r.Driver.repaired ~setup:[ ("main", []) ]
              ~checker:"check" ~checker_args:[]))

(* a buggy instance really is crash inconsistent (the property above is
   not vacuous) *)
let test_buggy_txn_loses_data () =
  let p =
    program_of_txns
      [ { cell = 0; value = 7; flush_data = true; flush_shadow = false } ]
  in
  let verdicts =
    Crashsim.sweep p ~setup:[ ("main", []) ] ~checker:"check" ~checker_args:[]
  in
  Alcotest.(check bool) "inconsistent durable image exists" true
    (List.exists (fun v -> not v.Crashsim.pessimistic_ok) verdicts)

(* ------------------------------------------------------------------ *)
(* Miniature Fig. 4: the performance ordering must hold under the cost
   model even at smoke-test scale. *)

let test_redis_perf_ordering () =
  let v = Hippo_apps.Redis_bench.repair_variants () in
  let spec =
    {
      (Hippo_ycsb.Workload.default_spec Hippo_ycsb.Workload.A) with
      record_count = 300;
      op_count = 300;
    }
  in
  let tput prog =
    Hippo_perfmodel.Timed.throughput_kops
      (Hippo_apps.Redis_bench.trial prog spec ~seed:3)
  in
  let intra = tput v.Hippo_apps.Redis_bench.h_intra in
  let manual = tput v.Hippo_apps.Redis_bench.manual in
  let full = tput v.Hippo_apps.Redis_bench.h_full in
  Alcotest.(check bool) "hoisting beats intra by >1.5x" true
    (full > 1.5 *. intra);
  Alcotest.(check bool) "full within 15% of the manual port" true
    (full > 0.85 *. manual)

let test_redis_load_full_beats_manual () =
  let v = Hippo_apps.Redis_bench.repair_variants () in
  let spec =
    {
      (Hippo_ycsb.Workload.default_spec Hippo_ycsb.Workload.Load) with
      record_count = 500;
      op_count = 500;
    }
  in
  let tput prog =
    Hippo_perfmodel.Timed.throughput_kops
      (Hippo_apps.Redis_bench.trial prog spec ~seed:1)
  in
  Alcotest.(check bool) "auto port at least matches the manual port on Load"
    true
    (tput v.Hippo_apps.Redis_bench.h_full
    >= tput v.Hippo_apps.Redis_bench.manual)

let suite =
  [
    ("buggy txn loses data", `Quick, test_buggy_txn_loses_data);
    QCheck_alcotest.to_alcotest prop_repaired_crash_consistent;
    ("redis perf ordering", `Slow, test_redis_perf_ordering);
    ("redis load: full >= manual", `Slow, test_redis_load_full_beats_manual);
  ]
