(* Tests for the YCSB workload generator: PRNG determinism, zipfian
   distribution shape, workload mixes, and key/value encoding. *)

open Hippo_ycsb

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 100 (fun _ -> Rng.next a) in
  let ys = List.init 100 (fun _ -> Rng.next b) in
  Alcotest.(check bool) "same stream" true (xs = ys);
  let c = Rng.create ~seed:43 in
  let zs = List.init 100 (fun _ -> Rng.next c) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10);
    let f = Rng.float r in
    Alcotest.(check bool) "unit float" true (f >= 0.0 && f < 1.0)
  done

let histogram n items f =
  let h = Array.make items 0 in
  for _ = 1 to n do
    let k = f () in
    h.(k) <- h.(k) + 1
  done;
  h

let test_zipfian_bounds_and_skew () =
  let z = Zipfian.create 100 in
  let r = Rng.create ~seed:7 in
  let h = histogram 20_000 100 (fun () -> Zipfian.next z r) in
  (* hottest item is item 0, and it dominates the median item *)
  let hottest = Array.fold_left max 0 h in
  Alcotest.(check int) "item 0 is hottest" hottest h.(0);
  Alcotest.(check bool) "skewed" true (h.(0) > 10 * h.(50));
  (* roughly zipf: top item gets ~ 1/zeta(100) of the mass ~ 19% *)
  Alcotest.(check bool) "plausible head mass" true
    (h.(0) > 2_000 && h.(0) < 6_000)

let test_zipfian_latest () =
  let z = Zipfian.create 100 in
  let r = Rng.create ~seed:9 in
  let h = histogram 10_000 100 (fun () -> Zipfian.latest z r ~n:100) in
  Alcotest.(check int) "latest item is hottest" (Array.fold_left max 0 h) h.(99)

let count_ops ops =
  List.fold_left
    (fun (r, u, ins, s, rmw) -> function
      | Workload.Read _ -> (r + 1, u, ins, s, rmw)
      | Workload.Update _ -> (r, u + 1, ins, s, rmw)
      | Workload.Insert _ -> (r, u, ins + 1, s, rmw)
      | Workload.Scan _ -> (r, u, ins, s + 1, rmw)
      | Workload.Read_modify_write _ -> (r, u, ins, s, rmw + 1))
    (0, 0, 0, 0, 0) ops

let spec kind = { (Workload.default_spec kind) with record_count = 1000; op_count = 4000 }

let test_workload_mixes () =
  let near ~pct n total =
    let expected = total * pct / 100 in
    abs (n - expected) < total / 10
  in
  let r, u, _, _, _ = count_ops (Workload.ops (spec Workload.A) ~seed:1) in
  Alcotest.(check bool) "A is 50/50" true (near ~pct:50 r 4000 && near ~pct:50 u 4000);
  let r, u, _, _, _ = count_ops (Workload.ops (spec Workload.B) ~seed:1) in
  Alcotest.(check bool) "B is 95/5" true (near ~pct:95 r 4000 && near ~pct:5 u 4000);
  let r, u, ins, s, rmw = count_ops (Workload.ops (spec Workload.C) ~seed:1) in
  Alcotest.(check bool) "C is read-only" true
    (r = 4000 && u = 0 && ins = 0 && s = 0 && rmw = 0);
  let r, _, ins, _, _ = count_ops (Workload.ops (spec Workload.D) ~seed:1) in
  Alcotest.(check bool) "D is 95 read / 5 insert" true
    (near ~pct:95 r 4000 && near ~pct:5 ins 4000);
  let _, _, ins, s, _ = count_ops (Workload.ops (spec Workload.E) ~seed:1) in
  Alcotest.(check bool) "E is 95 scan / 5 insert" true
    (near ~pct:95 s 4000 && near ~pct:5 ins 4000);
  let r, _, _, _, rmw = count_ops (Workload.ops (spec Workload.F) ~seed:1) in
  Alcotest.(check bool) "F is 50 read / 50 rmw" true
    (near ~pct:50 r 4000 && near ~pct:50 rmw 4000)

let test_load_is_sequential_inserts () =
  let ops = Workload.ops (spec Workload.Load) ~seed:3 in
  Alcotest.(check int) "record_count inserts" 1000 (List.length ops);
  List.iteri
    (fun idx op ->
      match op with
      | Workload.Insert k -> Alcotest.(check int) "sequential" idx k
      | _ -> Alcotest.fail "non-insert in load")
    ops

let test_inserts_use_fresh_keys () =
  let ops = Workload.ops (spec Workload.D) ~seed:5 in
  List.iter
    (function
      | Workload.Insert k ->
          Alcotest.(check bool) "beyond loaded range" true (k >= 1000)
      | _ -> ())
    ops

let test_ops_deterministic_by_seed () =
  let a = Workload.ops (spec Workload.A) ~seed:11 in
  let b = Workload.ops (spec Workload.A) ~seed:11 in
  let c = Workload.ops (spec Workload.A) ~seed:12 in
  Alcotest.(check bool) "same seed same ops" true (a = b);
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_scan_lengths_bounded () =
  let s = { (spec Workload.E) with max_scan_len = 10 } in
  List.iter
    (function
      | Workload.Scan (_, len) ->
          Alcotest.(check bool) "scan length in bounds" true (len >= 1 && len <= 10)
      | _ -> ())
    (Workload.ops s ~seed:2)

let test_seq_equals_ops () =
  (* the streaming generator and the materialized list agree for every
     workload kind *)
  List.iter
    (fun kind ->
      let s = spec kind in
      Alcotest.(check bool)
        (Fmt.str "seq = ops for %s" (Workload.kind_to_string kind))
        true
        (List.of_seq (Workload.seq s ~seed:17) = Workload.ops s ~seed:17))
    Workload.all_kinds

let test_seq_replayable_and_lazy () =
  let s = spec Workload.A in
  let head = Workload.seq s ~seed:23 in
  (* a Seq head can be traversed twice with identical results (fresh
     PRNG per traversal) *)
  Alcotest.(check bool) "replayable from head" true
    (List.of_seq head = List.of_seq head);
  (* laziness: taking a prefix of a huge stream terminates *)
  let huge = { s with op_count = 100_000_000 } in
  let prefix = List.of_seq (Seq.take 5 (Workload.seq huge ~seed:1)) in
  Alcotest.(check int) "prefix of huge stream" 5 (List.length prefix)

let test_key_value_encoding () =
  Alcotest.(check string) "key format" "user000000000042" (Workload.key_bytes 42);
  Alcotest.(check int) "key length" 16 (String.length (Workload.key_bytes 7));
  let v0 = Workload.value_bytes ~k:1 ~version:0 in
  let v1 = Workload.value_bytes ~k:1 ~version:1 in
  Alcotest.(check int) "value length" 96 (String.length v0);
  Alcotest.(check bool) "version changes value" true (v0 <> v1);
  Alcotest.(check string) "deterministic" v0 (Workload.value_bytes ~k:1 ~version:0);
  String.iter
    (fun c ->
      Alcotest.(check bool) "printable" true (Char.code c >= 0x20 && Char.code c < 0x80))
    v0

(* The direct key writer and the value table match the [Printf] and
   [String.init] definitions, on both sides of 10^12 and for negative
   keys and versions. *)
let prop_key_value_definitions =
  let big = 1_000_000_000_000 in
  QCheck.Test.make ~name:"key and value bytes match their definitions"
    ~count:1000
    QCheck.(
      pair
        (oneof
           [
             int;
             int_range (-1000) 1000;
             int_range (big - 1000) (big + 1000);
             int_range 0 big;
           ])
        (oneof [ int; int_range (-100) 100 ]))
    (fun (k, version) ->
      let seed = (k * 31) + version in
      Workload.key_bytes k = Printf.sprintf "user%012d" k
      && Workload.value_bytes ~k ~version
         = String.init 96 (fun idx ->
               Char.chr (((seed + (idx * 7)) land 0x3F) + 0x20)))

let prop_zipfian_in_range =
  QCheck.Test.make ~name:"zipfian stays in range" ~count:200
    QCheck.(pair (int_range 1 500) small_int)
    (fun (items, seed) ->
      let z = Zipfian.create items in
      let r = Rng.create ~seed in
      List.for_all
        (fun _ ->
          let k = Zipfian.next z r in
          k >= 0 && k < items)
        (List.init 50 Fun.id))

let suite =
  [
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng bounds", `Quick, test_rng_bounds);
    ("zipfian skew", `Quick, test_zipfian_bounds_and_skew);
    ("zipfian latest", `Quick, test_zipfian_latest);
    ("workload mixes", `Quick, test_workload_mixes);
    ("load phase", `Quick, test_load_is_sequential_inserts);
    ("inserts beyond range", `Quick, test_inserts_use_fresh_keys);
    ("seed determinism", `Quick, test_ops_deterministic_by_seed);
    ("scan lengths", `Quick, test_scan_lengths_bounded);
    ("seq equals ops", `Quick, test_seq_equals_ops);
    ("seq replayable and lazy", `Quick, test_seq_replayable_and_lazy);
    ("key/value encoding", `Quick, test_key_value_encoding);
    QCheck_alcotest.to_alcotest prop_key_value_definitions;
    QCheck_alcotest.to_alcotest prop_zipfian_in_range;
  ]
