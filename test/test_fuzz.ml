(* The fuzzing subsystem: coverage bitmap laws, mutator well-typedness,
   shrinker minimality, and the fuzz loop's determinism contract. *)

open Hippo_pmir
open Hippo_pmcheck
module Pgen = Hippo_fuzz.Gen
module Mutate = Hippo_fuzz.Mutate
module Oracle = Hippo_fuzz.Oracle
module Shrink = Hippo_fuzz.Shrink
module Fuzzer = Hippo_fuzz.Fuzzer

(* Coverage bitmap ------------------------------------------------------- *)

let test_coverage_edge_stable () =
  let e1 = Coverage.edge ~func:"f" ~block:"entry" ~dest:"then1" in
  let e2 = Coverage.edge ~func:"f" ~block:"entry" ~dest:"then1" in
  Alcotest.(check int) "same triple, same index" e1 e2;
  Alcotest.(check bool) "index in range" true (e1 >= 0 && e1 < Coverage.map_size);
  let e3 = Coverage.edge ~func:"f" ~block:"entry" ~dest:"else1" in
  Alcotest.(check bool) "different dest, different index" true (e1 <> e3)

let test_coverage_mark_reset () =
  let t = Coverage.create () in
  let e = Coverage.edge ~func:"f" ~block:"b" ~dest:"c" in
  Alcotest.(check bool) "fresh map empty" false (Coverage.mem t e);
  Coverage.mark t e;
  Coverage.mark t e;
  Alcotest.(check bool) "marked" true (Coverage.mem t e);
  Alcotest.(check int) "count ignores re-marks" 1 (Coverage.count t);
  Coverage.reset t;
  Alcotest.(check int) "reset clears" 0 (Coverage.count t);
  Alcotest.(check bool) "reset clears membership" false (Coverage.mem t e)

let test_coverage_add_merge () =
  let a = Coverage.create () and b = Coverage.create () in
  Alcotest.(check int) "add counts new bits" 3 (Coverage.add ~into:a [ 1; 2; 3 ]);
  Alcotest.(check int) "re-add counts nothing" 0 (Coverage.add ~into:a [ 2; 3 ]);
  ignore (Coverage.add ~into:b [ 3; 4 ]);
  Alcotest.(check int) "merge counts only fresh" 1 (Coverage.merge ~into:a b);
  Alcotest.(check (list int)) "to_list ascending" [ 1; 2; 3; 4 ]
    (Coverage.to_list a)

let test_coverage_run_deterministic () =
  (* same program, two fresh maps: identical edge sets *)
  let rand = Random.State.make [| 7 |] in
  let p = Pgen.random_mixed rand in
  let run () = Oracle.coverage_edges p in
  Alcotest.(check (list int)) "same edges both runs" (run ()) (run ())

(* Mutators -------------------------------------------------------------- *)

let prop_mutants_valid =
  QCheck.Test.make ~name:"mutants are well-typed PMIR" ~count:60
    QCheck.(pair Pgen.arb_mixed small_int)
    (fun (p, s) ->
      let rand = Random.State.make [| s |] in
      match Mutate.mutate_stack rand p with
      | None -> true
      | Some (_, p') -> Validate.is_valid p')

let prop_mutants_keep_checker =
  QCheck.Test.make ~name:"mutators never touch the recovery checker"
    ~count:60
    QCheck.(pair Pgen.arb_crash small_int)
    (fun (p, s) ->
      let checker_body p =
        match Program.find p Pgen.checker_name with
        | Some f -> Some (Printer.func_to_string f)
        | None -> None
      in
      let rand = Random.State.make [| s |] in
      match Mutate.mutate_stack rand p with
      | None -> true
      | Some (_, p') -> checker_body p' = checker_body p)

(* Hot blocks ------------------------------------------------------------ *)

let test_hot_blocks () =
  let rand = Random.State.make [| 11 |] in
  let p = Pgen.random_mixed rand in
  let hot = Oracle.hot_blocks p (Oracle.coverage_edges p) in
  Alcotest.(check bool) "main entry is hot" true
    (List.mem ("main", "entry") hot);
  List.iter
    (fun (fn, bl) ->
      match Program.find p fn with
      | None -> Alcotest.failf "hot block in unknown function %s" fn
      | Some f ->
          if not (List.exists (fun (b : Func.block) -> b.label = bl) (Func.blocks f))
          then Alcotest.failf "hot block %s.%s not in program" fn bl)
    hot

(* Shrinker -------------------------------------------------------------- *)

let undurable_store_count p =
  let config = Oracle.machine_config in
  let t = Interp.run ~config p ~entry:"main" ~args:[] in
  List.length (Machine.bugs (fst t))

let test_shrink_minimal () =
  (* a buggy program padded with generator noise shrinks to something
     that still fails, is valid, and is a deletion fixpoint *)
  let rand = Random.State.make [| 3 |] in
  let p = Pgen.random_mixed rand in
  let fails p = undurable_store_count p > 0 in
  (* make sure the seed actually fails; if not, drop its flushes first *)
  let apply name r p =
    (List.find (fun m -> m.Mutate.mname = name) Mutate.all).Mutate.apply
      ~hot:[] r p
  in
  let p =
    let rec strip p n =
      if n = 0 || fails p then p
      else
        let r = Random.State.make [| n |] in
        let p' =
          match apply "drop_flush" r p with
          | Some p' -> p'
          | None -> Option.value (apply "drop_fence" r p) ~default:p
        in
        strip p' (n - 1)
    in
    strip p 32
  in
  if not (fails p) then Alcotest.skip ()
  else begin
    let s = Shrink.shrink ~fails p in
    Alcotest.(check bool) "shrunk still fails" true (fails s);
    Alcotest.(check bool) "shrunk is valid" true (Validate.is_valid s);
    Alcotest.(check bool) "shrunk no larger" true
      (Program.size s <= Program.size p);
    let s2 = Shrink.shrink ~fails s in
    Alcotest.(check int) "shrinking is a fixpoint" (Program.size s)
      (Program.size s2)
  end

(* Fuzz loop determinism -------------------------------------------------- *)

let smoke_config jobs =
  {
    Fuzzer.default_config with
    Fuzzer.seed = 42;
    jobs;
    max_execs = 48;
  }

let summary_fingerprint (s : Fuzzer.summary) =
  Fmt.str "%d/%d/%d/%d/%s/%d/%d/%d/%d/%d" s.Fuzzer.execs s.Fuzzer.gen_count
    s.Fuzzer.mutant_count s.Fuzzer.corpus_size s.Fuzzer.corpus_digest
    s.Fuzzer.edges s.Fuzzer.blind_edges s.Fuzzer.memo_hits
    s.Fuzzer.memo_misses
    (List.length s.Fuzzer.found)

let test_jobs_deterministic () =
  let s1 = Fuzzer.run (smoke_config 1) in
  let s2 = Fuzzer.run (smoke_config 2) in
  Alcotest.(check string) "summary identical at jobs 1 and 2"
    (summary_fingerprint s1) (summary_fingerprint s2)

let test_memo_counters () =
  let s = Fuzzer.run (smoke_config 2) in
  Alcotest.(check bool) "crash sweeps consulted the recovery memo" true
    (s.Fuzzer.memo_hits + s.Fuzzer.memo_misses > 0)

let suite =
  [
    ("coverage edge stable", `Quick, test_coverage_edge_stable);
    ("coverage mark/reset", `Quick, test_coverage_mark_reset);
    ("coverage add/merge", `Quick, test_coverage_add_merge);
    ("coverage deterministic", `Quick, test_coverage_run_deterministic);
    QCheck_alcotest.to_alcotest prop_mutants_valid;
    QCheck_alcotest.to_alcotest prop_mutants_keep_checker;
    ("hot blocks", `Quick, test_hot_blocks);
    ("shrinker minimal", `Quick, test_shrink_minimal);
    ("fuzz jobs-deterministic", `Slow, test_jobs_deterministic);
    ("fuzz memo counters", `Slow, test_memo_counters);
  ]
