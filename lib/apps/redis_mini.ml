(** Redis_mini: a persistent hash-table key-value store in PMIR, modelled
    on Redis-pmem's PMDK dict (§6.3's subject).

    PM layout:
    - header: [0] magic, [8] nbuckets, [16] count, [24] buckets pointer;
    - bucket array: nbuckets × 8-byte entry pointers;
    - entry: [0] next, [8] klen, [16] vlen, [24] vcap,
      [32..56) key bytes (klen <= 24), [64..64+vcap) value bytes.

    Commands copy data with the shared [memcpy] — both into PM (SET's key
    and value) and into the volatile reply buffer (GET's echo and SET's
    confirmation), recreating the exact fix-placement tension of §3.2.
    Every command ends with an [sfence]: removing all flushes but keeping
    fences is precisely how the paper builds the Redis repair subject
    ("we leave memory fences in order to preserve semantic ordering").

    Three build variants:
    - {!Flush_free}: no flushes at all — the Hippocrates input;
    - {!Manual}: hand-placed [pmem_persist] calls in developer style
      (Listing 2), the Redis-pmem baseline; pmcheck reports no bugs here. *)

open Hippo_pmir
open Hippo_pmcheck

type variant = Flush_free | Manual

let variant_to_string = function
  | Flush_free -> "flush-free"
  | Manual -> "manual (Redis-pm)"

let v = Value.reg
let i = Value.imm

(* Entry field offsets. *)
let off_next = 0
let off_klen = 8
let off_vlen = 16
let off_vcap = 24
let off_key = 32
let off_val = 64

(* Header field offsets. *)
let hdr_magic = 0
let hdr_nbuckets = 8
let hdr_count = 16
let hdr_buckets = 24

let magic = 0x52444953 (* "RDIS" *)

let build (variant : variant) : Program.t =
  let b = Builder.create () in
  Hippo_pmdk_mini.Runtime.add b;
  let open Builder in
  let persist fb addr len =
    match variant with
    | Manual -> call_void fb "pmem_persist" [ addr; len ]
    | Flush_free -> ()
  in
  (* bucket slot address for a key *)
  let _ =
    func b "dict_slot" [ "hdr"; "key"; "klen" ] ~body:(fun fb ->
        let nb = load fb (gep fb (v "hdr") (i hdr_nbuckets)) in
        let bp = load fb (gep fb (v "hdr") (i hdr_buckets)) in
        let h = call fb "hash_fnv" [ v "key"; v "klen" ] in
        let idx = rem fb h nb in
        ret fb (gep fb bp (mul fb idx (i 8))))
  in
  let _ =
    func b "dict_find" [ "hdr"; "key"; "klen" ] ~body:(fun fb ->
        let slot = call fb "dict_slot" [ v "hdr"; v "key"; v "klen" ] in
        ignore (set fb "e" (load fb slot));
        while_ fb
          ~cond:(fun () -> ne fb (v "e") (i 0))
          ~body:(fun () ->
            let ekl = load fb (gep fb (v "e") (i off_klen)) in
            if_ fb
              (eq fb ekl (v "klen"))
              ~then_:(fun () ->
                let keq =
                  call fb "memcmp_eq"
                    [ gep fb (v "e") (i off_key); v "key"; v "klen" ]
                in
                if_ fb keq ~then_:(fun () -> ret fb (v "e")) ())
              ();
            ignore (set fb "e" (load fb (gep fb (v "e") (i off_next)))));
        ret fb (i 0))
  in
  let _ =
    func b "dict_init" [ "nbuckets" ] ~body:(fun fb ->
        let hdr = call fb "pm_alloc" [ i 64 ] in
        let nbytes = mul fb (v "nbuckets") (i 8) in
        let bp = call fb "pm_alloc" [ nbytes ] in
        ignore (call fb "memset" [ bp; i 0; nbytes ]);
        store fb ~addr:(gep fb hdr (i hdr_nbuckets)) (v "nbuckets");
        store fb ~addr:(gep fb hdr (i hdr_count)) (i 0);
        store fb ~addr:(gep fb hdr (i hdr_buckets)) bp;
        store fb ~addr:(gep fb hdr (i hdr_magic)) (i magic);
        persist fb bp nbytes;
        persist fb hdr (i 32);
        fence fb ();
        ret fb hdr)
  in
  let _ =
    func b "dict_set" [ "hdr"; "key"; "klen"; "val"; "vlen"; "reply" ]
      ~body:(fun fb ->
        (* protocol decode: wire buffer -> volatile sds staging copy *)
        let stage = load fb (Value.global "g_stage") in
        ignore (call fb "memcpy" [ stage; v "val"; v "vlen" ]);
        let e = call fb "dict_find" [ v "hdr"; v "key"; v "klen" ] in
        (* no short-circuit &&: guard the vcap load behind the null test *)
        ignore (set fb "fits" (i 0));
        if_ fb
          (ne fb e (i 0))
          ~then_:(fun () ->
            let cap = load fb (gep fb e (i off_vcap)) in
            if_ fb
              (le fb (v "vlen") cap)
              ~then_:(fun () -> ignore (set fb "fits" (i 1)))
              ())
          ();
        if_ fb (v "fits")
          ~then_:(fun () ->
            (* update in place: value bytes, then length *)
            ignore
              (call fb "memcpy" [ gep fb e (i off_val); stage; v "vlen" ]);
            persist fb (gep fb e (i off_val)) (v "vlen");
            store fb ~addr:(gep fb e (i off_vlen)) (v "vlen");
            persist fb (gep fb e (i off_vlen)) (i 8))
          ~else_:(fun () ->
            let cap = band fb (add fb (v "vlen") (i 63)) (i (lnot 63)) in
            let ne_ = call fb "pm_alloc" [ add fb (i off_val) cap ] in
            ignore
              (call fb "memcpy" [ gep fb ne_ (i off_key); v "key"; v "klen" ]);
            store fb ~addr:(gep fb ne_ (i off_klen)) (v "klen");
            persist fb (gep fb ne_ (i off_key)) (v "klen");
            ignore
              (call fb "memcpy" [ gep fb ne_ (i off_val); stage; v "vlen" ]);
            persist fb (gep fb ne_ (i off_val)) (v "vlen");
            store fb ~addr:(gep fb ne_ (i off_vlen)) (v "vlen");
            store fb ~addr:(gep fb ne_ (i off_vcap)) cap;
            let slot = call fb "dict_slot" [ v "hdr"; v "key"; v "klen" ] in
            store fb ~addr:(gep fb ne_ (i off_next)) (load fb slot);
            (* header fields must be durable before the entry is linked *)
            persist fb ne_ (i 32);
            (match variant with
            | Manual ->
                (* undo-log the link update (libpmemobj-tx style) *)
                let log = load fb (Value.global "g_txlog") in
                store fb ~addr:log slot;
                store fb ~addr:(gep fb log (i 8)) (load fb slot);
                store fb ~addr:(gep fb log (i 16))
                  (load fb (gep fb (v "hdr") (i hdr_count)));
                call_void fb "pmem_persist" [ log; i 24 ];
                store fb ~addr:(gep fb log (i 24)) (i 1);
                call_void fb "pmem_persist" [ gep fb log (i 24); i 8 ]
            | Flush_free -> ());
            store fb ~addr:slot ne_;
            persist fb slot (i 8);
            let cnt = gep fb (v "hdr") (i hdr_count) in
            store fb ~addr:cnt (add fb (load fb cnt) (i 1));
            persist fb cnt (i 8))
          ();
        (* volatile reply echo (the server acknowledges with the value) *)
        ignore (call fb "memcpy" [ v "reply"; v "val"; v "vlen" ]);
        fence fb ();
        ret fb (i 0))
  in
  let _ =
    func b "dict_get" [ "hdr"; "key"; "klen"; "out" ] ~body:(fun fb ->
        let e = call fb "dict_find" [ v "hdr"; v "key"; v "klen" ] in
        if_ fb
          (eq fb e (i 0))
          ~then_:(fun () -> ret fb (i (-1)))
          ();
        let vl = load fb (gep fb e (i off_vlen)) in
        let stage = load fb (Value.global "g_stage") in
        ignore (call fb "memcpy" [ stage; gep fb e (i off_val); vl ]);
        ignore (call fb "memcpy" [ v "out"; stage; vl ]);
        ret fb vl)
  in
  let _ =
    func b "dict_del" [ "hdr"; "key"; "klen" ] ~body:(fun fb ->
        let slot = call fb "dict_slot" [ v "hdr"; v "key"; v "klen" ] in
        ignore (set fb "prev" (i 0));
        ignore (set fb "e" (load fb slot));
        while_ fb
          ~cond:(fun () -> ne fb (v "e") (i 0))
          ~body:(fun () ->
            let ekl = load fb (gep fb (v "e") (i off_klen)) in
            let keq =
              band fb
                (eq fb ekl (v "klen"))
                (call fb "memcmp_eq"
                   [ gep fb (v "e") (i off_key); v "key"; v "klen" ])
            in
            if_ fb keq
              ~then_:(fun () ->
                let nxt = load fb (gep fb (v "e") (i off_next)) in
                if_ fb
                  (eq fb (v "prev") (i 0))
                  ~then_:(fun () ->
                    store fb ~addr:slot nxt;
                    persist fb slot (i 8))
                  ~else_:(fun () ->
                    let pn = gep fb (v "prev") (i off_next) in
                    store fb ~addr:pn nxt;
                    persist fb pn (i 8))
                  ();
                let cnt = gep fb (v "hdr") (i hdr_count) in
                store fb ~addr:cnt (sub fb (load fb cnt) (i 1));
                persist fb cnt (i 8);
                fence fb ();
                ret fb (i 1))
              ();
            ignore (set fb "prev" (v "e"));
            ignore (set fb "e" (load fb (gep fb (v "e") (i off_next)))));
        fence fb ();
        ret fb (i 0))
  in
  let _ =
    func b "dict_count" [ "hdr" ] ~body:(fun fb ->
        ret fb (load fb (gep fb (v "hdr") (i hdr_count))))
  in
  (* Recovery invariant: magic intact and the entry walk agrees with the
     stored count, with all lengths in range. Used by crash simulation. *)
  let _ =
    func b "dict_check" [ "hdr" ] ~body:(fun fb ->
        let m = load fb (gep fb (v "hdr") (i hdr_magic)) in
        if_ fb (ne fb m (i magic)) ~then_:(fun () -> ret fb (i 0)) ();
        let nb = load fb (gep fb (v "hdr") (i hdr_nbuckets)) in
        let bp = load fb (gep fb (v "hdr") (i hdr_buckets)) in
        ignore (set fb "n" (i 0));
        for_ fb "bi" ~from:(i 0) ~below:nb ~body:(fun bi ->
            let slot = gep fb bp (mul fb bi (i 8)) in
            ignore (set fb "e" (load fb slot));
            while_ fb
              ~cond:(fun () -> ne fb (v "e") (i 0))
              ~body:(fun () ->
                let kl = load fb (gep fb (v "e") (i off_klen)) in
                let vl = load fb (gep fb (v "e") (i off_vlen)) in
                let vc = load fb (gep fb (v "e") (i off_vcap)) in
                let bad =
                  bor fb
                    (bor fb (le fb kl (i 0)) (gt fb kl (i 24)))
                    (bor fb (lt fb vl (i 0)) (gt fb vl vc))
                in
                if_ fb bad ~then_:(fun () -> ret fb (i 0)) ();
                ignore (set fb "n" (add fb (v "n") (i 1)));
                ignore (set fb "e" (load fb (gep fb (v "e") (i off_next))))));
        let cnt = load fb (gep fb (v "hdr") (i hdr_count)) in
        ret fb (eq fb (v "n") cnt))
  in
  (* --- the command layer (the "server" side) --------------------------
     The host client never passes pointers: it fills the connection
     buffers, sets the length globals, and issues a command. This is also
     what makes whole-program alias analysis complete: every pointer that
     reaches the dict flows from an allocation the program performs
     itself, exactly as in the real Redis server. *)
  global b "g_hdr" 8;
  global b "g_key" 8;
  global b "g_val" 8;
  global b "g_reply" 8;
  global b "g_stage" 8;
  global b "g_txlog" 8;
  global b "g_klen" 8;
  global b "g_vlen" 8;
  let _ =
    func b "server_init" [ "nbuckets" ] ~body:(fun fb ->
        let hdr = call fb "dict_init" [ v "nbuckets" ] in
        store fb ~addr:(Value.global "g_hdr") hdr;
        store fb ~addr:(Value.global "g_key") (call fb "malloc" [ i 32 ]);
        store fb ~addr:(Value.global "g_val") (call fb "malloc" [ i 128 ]);
        store fb ~addr:(Value.global "g_reply") (call fb "malloc" [ i 128 ]);
        store fb ~addr:(Value.global "g_stage") (call fb "malloc" [ i 128 ]);
        (match variant with
        | Manual ->
            (* the developer port keeps a small undo log, as the
               libpmemobj-transaction-based Redis-pmem does *)
            let log = call fb "pm_alloc" [ i 64 ] in
            store fb ~addr:(Value.global "g_txlog") log;
            call_void fb "pmem_persist" [ log; i 8 ]
        | Flush_free -> ());
        ret_void fb)
  in
  let _ =
    func b "cmd_set" [] ~body:(fun fb ->
        let hdr = load fb (Value.global "g_hdr") in
        let key = load fb (Value.global "g_key") in
        let klen = load fb (Value.global "g_klen") in
        let vl = load fb (Value.global "g_val") in
        let vlen = load fb (Value.global "g_vlen") in
        let reply = load fb (Value.global "g_reply") in
        ret fb (call fb "dict_set" [ hdr; key; klen; vl; vlen; reply ]))
  in
  let _ =
    func b "cmd_get" [] ~body:(fun fb ->
        let hdr = load fb (Value.global "g_hdr") in
        let key = load fb (Value.global "g_key") in
        let klen = load fb (Value.global "g_klen") in
        let reply = load fb (Value.global "g_reply") in
        ret fb (call fb "dict_get" [ hdr; key; klen; reply ]))
  in
  let _ =
    func b "cmd_del" [] ~body:(fun fb ->
        let hdr = load fb (Value.global "g_hdr") in
        let key = load fb (Value.global "g_key") in
        let klen = load fb (Value.global "g_klen") in
        ret fb (call fb "dict_del" [ hdr; key; klen ]))
  in
  let _ =
    func b "cmd_count" [] ~body:(fun fb ->
        ret fb (call fb "dict_count" [ load fb (Value.global "g_hdr") ]))
  in
  let _ =
    func b "cmd_check" [] ~body:(fun fb ->
        ret fb (call fb "dict_check" [ load fb (Value.global "g_hdr") ]))
  in
  let p = Builder.program b in
  Validate.check_exn p;
  p

(* ---------------------------------------------------------------------- *)
(* Host-side driver: a YCSB client that fills the server's connection
   buffers and issues commands. *)

type session = {
  machine : Machine.t;
  key_buf : int;
  val_buf : int;
  reply_buf : int;
  g_klen : int;
  g_vlen : int;
}

let key_cap = 24
let val_cap = 96

(** [attach machine ~nbuckets] initializes the server and locates the
    connection buffers (used when the machine is owned by a repair or
    measurement harness). *)
let attach ?(nbuckets = 1024) machine : session =
  ignore (Compile.call machine "server_init" [ nbuckets ]);
  let mem = Machine.mem machine in
  let g name = Machine.global_addr machine name in
  let deref name = Mem.load mem ~addr:(g name) ~size:8 in
  {
    machine;
    key_buf = deref "g_key";
    val_buf = deref "g_val";
    reply_buf = deref "g_reply";
    g_klen = g "g_klen";
    g_vlen = g "g_vlen";
  }

(* Sessions are hot paths (the load generator drives millions of ops):
   no trace by default. *)
let start ?(config = { Machine.default_config with Machine.trace = false })
    ?nbuckets prog : session =
  attach ?nbuckets (Machine.create config prog)

(** [recover_attach machine] rebinds the server roots on a machine
    that was restarted over a crash image ([Machine.restart ~pm_image]).
    Redis recovery is pure root recomputation — the dict header is the
    pool's first (cache-line-aligned) allocation and the bucket array
    follows it — so it runs host-side: a PMIR recovery function would
    add malloc and call sites to the program and perturb the
    whole-program alias analysis (and with it the repair's flush
    placement) in every build variant. The volatile connection buffers
    are reallocated fresh; nothing durable is written, so the image
    under recovery is exactly what the crash preserved. Consistency is
    judged by the caller ({!session} commands, e.g. [cmd_check]). *)
let recover_attach machine : session =
  let mem = Machine.mem machine in
  let g name = Machine.global_addr machine name in
  let put name value = Mem.store mem ~addr:(g name) ~size:8 value in
  let hdr = Layout.pm_base in
  put "g_hdr" hdr;
  let key_buf = Mem.alloc_vol mem 32 in
  let val_buf = Mem.alloc_vol mem 128 in
  let reply_buf = Mem.alloc_vol mem 128 in
  put "g_key" key_buf;
  put "g_val" val_buf;
  put "g_reply" reply_buf;
  put "g_stage" (Mem.alloc_vol mem 128);
  (* Manual's undo log is the allocation right after the bucket array;
     its address is recomputable from the persisted bucket count
     (pm_alloc rounds to cache lines). The flush-free build never reads
     [g_txlog], so the unconditional store is harmless there. *)
  let nb = Mem.load mem ~addr:(hdr + hdr_nbuckets) ~size:8 in
  put "g_txlog" (hdr + 64 + (((nb * 8) + 63) land lnot 63));
  { machine; key_buf; val_buf; reply_buf; g_klen = g "g_klen"; g_vlen = g "g_vlen" }

let set_key s k =
  let key = Hippo_ycsb.Workload.key_bytes k in
  let mem = Machine.mem s.machine in
  Mem.write_string mem ~addr:s.key_buf key;
  Mem.store mem ~addr:s.g_klen ~size:8 (String.length key)

let set_value s ~k ~version =
  let value = Hippo_ycsb.Workload.value_bytes ~k ~version in
  let mem = Machine.mem s.machine in
  Mem.write_string mem ~addr:s.val_buf value;
  Mem.store mem ~addr:s.g_vlen ~size:8 (String.length value)

let op_insert s ~k ~version =
  set_key s k;
  set_value s ~k ~version;
  ignore (Compile.call s.machine "cmd_set" [])

let op_read s ~k =
  set_key s k;
  Compile.call s.machine "cmd_get" []

let op_delete s ~k =
  set_key s k;
  Compile.call s.machine "cmd_del" []

let run_op s (op : Hippo_ycsb.Workload.op) =
  match op with
  | Hippo_ycsb.Workload.Read k -> ignore (op_read s ~k)
  | Hippo_ycsb.Workload.Update k -> op_insert s ~k ~version:1
  | Hippo_ycsb.Workload.Insert k -> op_insert s ~k ~version:0
  | Hippo_ycsb.Workload.Scan (k, len) ->
      for j = k to k + len - 1 do
        ignore (op_read s ~k:j)
      done
  | Hippo_ycsb.Workload.Read_modify_write k ->
      ignore (op_read s ~k);
      op_insert s ~k ~version:2

let count s = Compile.call s.machine "cmd_count" []
