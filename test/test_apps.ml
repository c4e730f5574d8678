(* Functional and crash-consistency tests for the subject applications:
   Redis_mini (all variants), P-CLHT and memcached_mini. *)

open Hippo_pmcheck
open Hippo_apps

(* ------------------------------------------------------------------ *)
(* Redis_mini functional behaviour *)

let redis_session variant =
  Redis_mini.start ~nbuckets:32 (Redis_mini.build variant)

let value_at s =
  let mem = Interp.mem s.Redis_mini.interp in
  Mem.read_string mem ~addr:s.Redis_mini.reply_buf

let test_redis_set_get () =
  List.iter
    (fun variant ->
      let s = redis_session variant in
      Redis_mini.op_insert s ~k:7 ~version:0;
      let vlen = Redis_mini.op_read s ~k:7 in
      Alcotest.(check int) "value length" 96 vlen;
      Alcotest.(check string) "value bytes"
        (Hippo_ycsb.Workload.value_bytes ~k:7 ~version:0)
        (value_at s ~len:vlen);
      Alcotest.(check int) "missing key" (-1) (Redis_mini.op_read s ~k:8))
    [ Redis_mini.Flush_free; Redis_mini.Manual ]

let test_redis_update_in_place () =
  let s = redis_session Redis_mini.Manual in
  Redis_mini.op_insert s ~k:3 ~version:0;
  Redis_mini.op_insert s ~k:3 ~version:5;
  let vlen = Redis_mini.op_read s ~k:3 in
  Alcotest.(check string) "updated value"
    (Hippo_ycsb.Workload.value_bytes ~k:3 ~version:5)
    (value_at s ~len:vlen);
  Alcotest.(check int) "count still 1" 1 (Redis_mini.count s)

let test_redis_delete () =
  let s = redis_session Redis_mini.Manual in
  for k = 0 to 9 do
    Redis_mini.op_insert s ~k ~version:0
  done;
  Alcotest.(check int) "ten entries" 10 (Redis_mini.count s);
  Alcotest.(check int) "delete hits" 1 (Redis_mini.op_delete s ~k:4);
  Alcotest.(check int) "delete misses" 0 (Redis_mini.op_delete s ~k:4);
  Alcotest.(check int) "nine left" 9 (Redis_mini.count s);
  Alcotest.(check int) "gone" (-1) (Redis_mini.op_read s ~k:4);
  Alcotest.(check bool) "others intact" true (Redis_mini.op_read s ~k:5 = 96)

let test_redis_collision_chains () =
  (* tiny table forces chains; all keys must remain reachable *)
  let s = Redis_mini.start ~nbuckets:2 (Redis_mini.build Redis_mini.Manual) in
  for k = 0 to 49 do
    Redis_mini.op_insert s ~k ~version:0
  done;
  for k = 0 to 49 do
    Alcotest.(check int) (Printf.sprintf "key %d" k) 96 (Redis_mini.op_read s ~k)
  done;
  Alcotest.(check int) "count" 50 (Redis_mini.count s)

let test_redis_check_invariant () =
  let s = redis_session Redis_mini.Manual in
  for k = 0 to 19 do
    Redis_mini.op_insert s ~k ~version:0
  done;
  ignore (Redis_mini.op_delete s ~k:3);
  Alcotest.(check int) "dict_check holds" 1
    (Interp.call s.Redis_mini.interp "cmd_check" [])

let test_redis_manual_is_clean () =
  Alcotest.(check int) "manual port has no bugs" 0
    (List.length (Redis_bench.residual_bugs (Redis_mini.build Redis_mini.Manual)))

let test_redis_flush_free_is_buggy () =
  Alcotest.(check bool) "flush-free port has bugs" true
    (Redis_bench.residual_bugs (Redis_mini.build Redis_mini.Flush_free) <> [])

(* Durable state survives a clean restart: run ops on the manual variant,
   take the durable image, reopen and verify. *)
let test_redis_restart_from_durable_image () =
  let prog = Redis_mini.build Redis_mini.Manual in
  let s = Redis_mini.start ~nbuckets:16 prog in
  for k = 0 to 9 do
    Redis_mini.op_insert s ~k ~version:2
  done;
  let image = Interp.crash_image s.Redis_mini.interp in
  (* reopen: fresh interpreter on the durable image; recovery rebinds the
     root, then the data must be fully readable *)
  let t2 = Interp.create ~pm_image:image Interp.default_config prog in
  let mem = Interp.mem t2 in
  let g name = Interp.global_addr t2 name in
  (* recovery: header is the pool's first allocation *)
  Mem.store mem ~addr:(g "g_hdr") ~size:8 Layout.pm_base;
  Mem.store mem ~addr:(g "g_key") ~size:8 (Mem.alloc_vol mem 32);
  Mem.store mem ~addr:(g "g_reply") ~size:8 (Mem.alloc_vol mem 128);
  Mem.store mem ~addr:(g "g_stage") ~size:8 (Mem.alloc_vol mem 128);
  let key_buf = Mem.load mem ~addr:(g "g_key") ~size:8 in
  let check_key k =
    let key = Hippo_ycsb.Workload.key_bytes k in
    Mem.write_string mem ~addr:key_buf key;
    Mem.store mem ~addr:(g "g_klen") ~size:8 (String.length key);
    Interp.call t2 "cmd_get" []
  in
  for k = 0 to 9 do
    Alcotest.(check int) (Printf.sprintf "key %d survives" k) 96 (check_key k)
  done;
  Alcotest.(check int) "dict_check after restart" 1
    (Interp.call t2 "cmd_check" [])

(* Bytes [f] allocates. OCaml 5.1's counters credit minor-heap words
   only when a minor collection runs, so the minor heap is emptied on
   both sides of the call: before, to keep earlier allocation out of the
   count, and after, to bring all of the call's own in. *)
let allocated_bytes f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = Sys.opaque_identity (f ()) in
  Gc.minor ();
  (r, Gc.allocated_bytes () -. before)

(* Allocation guard: a restart copies the trimmed crash image, not the
   16 MB PM segment, and it reuses the prepared program, so it costs
   well under half of preparing the program afresh over the same
   image. It also keeps the compiled program: the first read after the
   reopen runs code compiled before the crash and allocates about what
   a warm read does, not a recompile of every function it calls. *)
let test_redis_reopen_allocation_guard () =
  let prog =
    match App.program App.Redis App.Manual with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let app = App.wrap App.Redis App.Manual prog in
  for k = 0 to 39 do
    app.App.insert ~key:(Printf.sprintf "k%02d" k)
      ~value:(Hippo_ycsb.Workload.value_bytes ~k ~version:0)
  done;
  ignore (app.App.read ~key:"k00");
  let image = Interp.crash_image app.App.interp in
  let reopened, bytes =
    allocated_bytes (fun () -> app.App.reopen ~pm_image:image)
  in
  (match reopened with
  | Ok app' ->
      Alcotest.(check int) "every record survives" 40 (app'.App.count ());
      let found, read_bytes =
        allocated_bytes (fun () -> app'.App.read ~key:"k01")
      in
      Alcotest.(check bool) "the first read finds its record" true
        (found
        = App.Found (Hippo_ycsb.Workload.value_bytes ~k:1 ~version:0));
      if read_bytes >= 16e3 then
        Alcotest.failf "the first read after App.reopen allocated %.0f bytes"
          read_bytes
  | Error e -> Alcotest.fail e);
  if bytes >= 1e6 then Alcotest.failf "App.reopen allocated %.0f bytes" bytes;
  let _, fresh =
    allocated_bytes (fun () ->
        Interp.create ~pm_image:image app.App.interp.Machine.cfg prog)
  in
  if bytes >= fresh /. 2. then
    Alcotest.failf
      "App.reopen allocated %.0f bytes, Interp.create ~pm_image %.0f: the \
       restart re-prepares the program"
      bytes fresh

(* ------------------------------------------------------------------ *)
(* P-CLHT *)

let clht_interp () =
  let p = Pclht.build () in
  let t = Interp.create Interp.default_config p in
  ignore (Interp.call t "clht_init" [ 8 ]);
  t

let test_clht_put_get_del () =
  let t = clht_interp () in
  for k = 1 to 30 do
    Alcotest.(check int) "fresh insert" 1 (Interp.call t "clht_put" [ k; k * 7 ])
  done;
  for k = 1 to 30 do
    Alcotest.(check int) (Printf.sprintf "get %d" k) (k * 7)
      (Interp.call t "clht_get" [ k ])
  done;
  Alcotest.(check int) "update returns 2" 2 (Interp.call t "clht_put" [ 5; 99 ]);
  Alcotest.(check int) "updated" 99 (Interp.call t "clht_get" [ 5 ]);
  Alcotest.(check int) "del" 1 (Interp.call t "clht_del" [ 5 ]);
  Alcotest.(check int) "deleted" 0 (Interp.call t "clht_get" [ 5 ]);
  Alcotest.(check int) "missing del" 0 (Interp.call t "clht_del" [ 5 ]);
  Alcotest.(check int) "check invariant" 1 (Interp.call t "clht_check" [])

let test_clht_overflow_chains () =
  let t = clht_interp () in
  (* 8 buckets x 3 slots = 24; 60 keys force chains *)
  for k = 1 to 60 do
    ignore (Interp.call t "clht_put" [ k; k ])
  done;
  for k = 1 to 60 do
    Alcotest.(check int) (Printf.sprintf "chained get %d" k) k
      (Interp.call t "clht_get" [ k ])
  done;
  Alcotest.(check int) "size invariant" 1 (Interp.call t "clht_check" [])

(* Crash consistency: the repaired P-CLHT must be crash consistent at
   every durability point; the buggy one must not be. *)
let clht_setup =
  [ ("clht_init", [ 4 ]) ]
  @ List.concat_map
      (fun k -> [ ("clht_put", [ k; k * 3 ]) ])
      (List.init 20 (fun k -> k + 1))
  @ [ ("clht_put", [ 3; 999 ]) ]

let test_clht_buggy_not_crash_consistent () =
  let p = Pclht.build () in
  let verdicts =
    Crashsim.sweep p ~setup:clht_setup ~checker:"clht_recover_check"
      ~checker_args:[]
  in
  Alcotest.(check bool) "has crash points" true (verdicts <> []);
  Alcotest.(check bool) "some crash state is inconsistent" true
    (List.exists (fun v -> not v.Crashsim.pessimistic_ok) verdicts);
  (* the single-pass sweep on an application, against the per-crash-point
     replay oracle and at four domains *)
  Alcotest.(check bool) "replay sweep agrees" true
    (Crashsim.replay_sweep ~jobs:1 p ~setup:clht_setup
       ~checker:"clht_recover_check" ~checker_args:[]
    = verdicts);
  Alcotest.(check bool) "four-domain sweep agrees" true
    (Crashsim.sweep ~jobs:4 p ~setup:clht_setup ~checker:"clht_recover_check"
       ~checker_args:[]
    = verdicts)

let test_clht_repaired_crash_consistent () =
  let p = Pclht.build () in
  let r =
    Hippo_core.Driver.repair ~name:"pclht" ~workload:Pclht.workload p
  in
  Alcotest.(check bool) "repaired and clean" true
    (Hippo_core.Verify.effective r.Hippo_core.Driver.verification);
  let ok =
    List.for_all Crashsim.consistent
      (Crashsim.sweep r.Hippo_core.Driver.repaired ~setup:clht_setup
         ~checker:"clht_recover_check" ~checker_args:[])
  in
  Alcotest.(check bool) "crash consistent after repair" true ok

(* ------------------------------------------------------------------ *)
(* memcached_mini *)

let mc_session () =
  let p = Memcached_mini.build () in
  let t = Interp.create Interp.default_config p in
  Memcached_mini.attach ~nbuckets:8 t

let test_mc_set_get_del () =
  let s = mc_session () in
  Memcached_mini.op_set s ~key:"alpha" ~value:"0123456789abcdef" ~flags:2;
  Memcached_mini.op_set s ~key:"beta" ~value:"xxxxxxxxyyyyyyyy" ~flags:0;
  Alcotest.(check int) "get alpha" 16 (Memcached_mini.op_get s ~key:"alpha");
  Alcotest.(check int) "get missing" (-1) (Memcached_mini.op_get s ~key:"gamma");
  Alcotest.(check int) "del beta" 1 (Memcached_mini.op_del s ~key:"beta");
  Alcotest.(check int) "beta gone" (-1) (Memcached_mini.op_get s ~key:"beta");
  Alcotest.(check int) "count" 1 (Interp.call s.Memcached_mini.interp "cmd_count" [])

let test_mc_replace_semantics () =
  let s = mc_session () in
  Memcached_mini.op_set s ~key:"k" ~value:"v1v1v1v1" ~flags:0;
  Memcached_mini.op_set s ~key:"k" ~value:"v2v2v2v2v2v2" ~flags:1;
  Alcotest.(check int) "replaced length" 12 (Memcached_mini.op_get s ~key:"k");
  Alcotest.(check int) "count stays 1" 1
    (Interp.call s.Memcached_mini.interp "cmd_count" [])

let test_mc_touch () =
  let s = mc_session () in
  Memcached_mini.op_set s ~key:"t" ~value:"vvvvvvvv" ~flags:0;
  Memcached_mini.set_key s "t";
  Alcotest.(check int) "touch existing" 1
    (Interp.call s.Memcached_mini.interp "cmd_touch" [ 7200 ]);
  Memcached_mini.set_key s "absent";
  Alcotest.(check int) "touch missing" 0
    (Interp.call s.Memcached_mini.interp "cmd_touch" [ 7200 ])

let test_mc_workload_invariant () =
  let p = Memcached_mini.build () in
  let t = Interp.create Interp.default_config p in
  Memcached_mini.workload t;
  Alcotest.(check int) "recover-check on live state" 1
    (Interp.call t "mc_recover_check" [])

let suite =
  [
    ("redis set/get", `Quick, test_redis_set_get);
    ("redis update in place", `Quick, test_redis_update_in_place);
    ("redis delete", `Quick, test_redis_delete);
    ("redis collision chains", `Quick, test_redis_collision_chains);
    ("redis check invariant", `Quick, test_redis_check_invariant);
    ("redis manual variant clean", `Quick, test_redis_manual_is_clean);
    ("redis flush-free variant buggy", `Quick, test_redis_flush_free_is_buggy);
    ("redis restart from durable image", `Quick, test_redis_restart_from_durable_image);
    ( "redis reopen allocation guard",
      `Quick,
      test_redis_reopen_allocation_guard );
    ("clht put/get/del", `Quick, test_clht_put_get_del);
    ("clht overflow chains", `Quick, test_clht_overflow_chains);
    ("clht buggy not crash consistent", `Slow, test_clht_buggy_not_crash_consistent);
    ("clht repaired crash consistent", `Slow, test_clht_repaired_crash_consistent);
    ("memcached set/get/del", `Quick, test_mc_set_get_del);
    ("memcached replace", `Quick, test_mc_replace_semantics);
    ("memcached touch", `Quick, test_mc_touch);
    ("memcached workload invariant", `Quick, test_mc_workload_invariant);
  ]
