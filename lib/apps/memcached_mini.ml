(** memcached_mini: a PM-backed slab cache after Lenovo's memcached-pm,
    the third subject of §6.1 (10 previously-undocumented bugs).

    PM layout (two-line header, 288-byte slab chunks; fields that the
    buggy SET path forgets to persist sit on different cache lines from
    the fields the correct paths persist, as in the original layout where
    the omissions were observable):
    - header line 0: [0] magic, [8] nbuckets, [16] buckets ptr,
      [24] lru_tail, [32] stat_dels; header line 1: [64] lru_head,
      [72] count, [80] stat_sets;
    - item line 0: [0] hash_next, [8] klen, [16] vlen; item line 1:
      [64] flags, [72] exptime, [80] cas, [88] lru_next, [96] lru_prev;
      [128..160) key bytes, [192..288) value bytes.

    The correct persistence discipline (seen in [mc_del], [mc_touch] and
    the flags/cas/exptime updates) is [pmem_persist] after each logical
    write. Ten omissions are injected in the hot SET path — key copy,
    value copy, length fields, hash/LRU linkage, count and the set
    statistic — matching the bug population the paper reports for
    memcached-pm. Like Redis_mini, commands go through a wire-buffer
    layer, and GET builds its reply with the shared [memcpy], so the two
    copy bugs admit interprocedural fixes while the field stores take
    intraprocedural flushes. *)

open Hippo_pmir
open Hippo_pmcheck

let v = Value.reg
let i = Value.imm

(* header offsets *)
let h_magic = 0
let h_nbuckets = 8
let h_buckets = 16
let h_lru_tail = 24
let h_stat_dels = 32
let h_lru_head = 64
let h_count = 72
let h_stat_sets = 80

(* item offsets *)
let it_hash_next = 0
let it_klen = 8
let it_vlen = 16
let it_flags = 64
let it_exptime = 72
let it_cas = 80
let it_lru_next = 88
let it_lru_prev = 96
let it_key = 128
let it_val = 192

let item_size = 288
let magic = 0x4D454D43 (* "MEMC" *)

let build () : Program.t =
  let b = Builder.create () in
  Hippo_pmdk_mini.Runtime.add b;
  let open Builder in
  global b "g_mc" 8;
  global b "g_key" 8;
  global b "g_val" 8;
  global b "g_reply" 8;
  global b "g_klen" 8;
  global b "g_vlen" 8;
  global b "g_flags" 8;
  let hdr fb = load fb (Value.global "g_mc") in
  let persist fb addr len = call_void fb "pmem_persist" [ addr; len ] in
  let _ =
    func b "mc_init" [ "nbuckets" ] ~body:(fun fb ->
        let h = call fb "pm_alloc" [ i 128 ] in
        let nbytes = mul fb (v "nbuckets") (i 8) in
        let bp = call fb "pm_alloc" [ nbytes ] in
        ignore (call fb "memset" [ bp; i 0; nbytes ]);
        persist fb bp nbytes;
        store fb ~addr:(gep fb h (i h_nbuckets)) (v "nbuckets");
        store fb ~addr:(gep fb h (i h_buckets)) bp;
        store fb ~addr:(gep fb h (i h_magic)) (i magic);
        persist fb h (i 128);
        store fb ~addr:(Value.global "g_mc") h;
        store fb ~addr:(Value.global "g_key") (call fb "malloc" [ i 32 ]);
        store fb ~addr:(Value.global "g_val") (call fb "malloc" [ i 128 ]);
        store fb ~addr:(Value.global "g_reply") (call fb "malloc" [ i 128 ]);
        ret_void fb)
  in
  let _ =
    func b "mc_slot" [ "key"; "klen" ] ~body:(fun fb ->
        let h = hdr fb in
        let nb = load fb (gep fb h (i h_nbuckets)) in
        let bp = load fb (gep fb h (i h_buckets)) in
        let hv = call fb "hash_fnv" [ v "key"; v "klen" ] in
        ret fb (gep fb bp (mul fb (rem fb hv nb) (i 8))))
  in
  let _ =
    func b "mc_find" [ "key"; "klen" ] ~body:(fun fb ->
        let slot = call fb "mc_slot" [ v "key"; v "klen" ] in
        ignore (set fb "it" (load fb slot));
        while_ fb
          ~cond:(fun () -> ne fb (v "it") (i 0))
          ~body:(fun () ->
            let kl = load fb (gep fb (v "it") (i it_klen)) in
            if_ fb
              (eq fb kl (v "klen"))
              ~then_:(fun () ->
                let same =
                  call fb "memcmp_eq"
                    [ gep fb (v "it") (i it_key); v "key"; v "klen" ]
                in
                if_ fb same ~then_:(fun () -> ret fb (v "it")) ())
              ();
            ignore
              (set fb "it" (load fb (gep fb (v "it") (i it_hash_next)))));
        ret fb (i 0))
  in
  (* LRU push-front; BUGS 7 and 8 live here. *)
  let _ =
    func b "mc_lru_push" [ "it" ] ~body:(fun fb ->
        let h = hdr fb in
        let headp = gep fb h (i h_lru_head) in
        let old = load fb headp in
        store fb ~addr:(gep fb (v "it") (i it_lru_next)) old;
        store fb ~addr:(gep fb (v "it") (i it_lru_prev)) (i 0);
        persist fb (gep fb (v "it") (i it_lru_next)) (i 16);
        ignore old;
        if_ fb (ne fb old (i 0))
          ~then_:(fun () ->
            (* BUG 8 (missing-flush): the old head's back link is stored
               but never persisted. *)
            store fb ~addr:(gep fb old (i it_lru_prev)) (v "it"))
          ~else_:(fun () ->
            let tailp = gep fb h (i h_lru_tail) in
            store fb ~addr:tailp (v "it");
            persist fb tailp (i 8))
          ();
        (* BUG 7 (missing-flush): the LRU head pointer itself. *)
        store fb ~addr:headp (v "it");
        ret_void fb)
  in
  let _ =
    func b "mc_lru_unlink" [ "it" ] ~body:(fun fb ->
        let h = hdr fb in
        let nxt = load fb (gep fb (v "it") (i it_lru_next)) in
        let prv = load fb (gep fb (v "it") (i it_lru_prev)) in
        if_ fb (ne fb prv (i 0))
          ~then_:(fun () ->
            let p = gep fb prv (i it_lru_next) in
            store fb ~addr:p nxt;
            persist fb p (i 8))
          ~else_:(fun () ->
            let hp = gep fb h (i h_lru_head) in
            store fb ~addr:hp nxt;
            persist fb hp (i 8))
          ();
        if_ fb (ne fb nxt (i 0))
          ~then_:(fun () ->
            let p = gep fb nxt (i it_lru_prev) in
            store fb ~addr:p prv;
            persist fb p (i 8))
          ~else_:(fun () ->
            let tp = gep fb h (i h_lru_tail) in
            store fb ~addr:tp prv;
            persist fb tp (i 8))
          ();
        ret_void fb)
  in
  (* the SET path: 10 injected omissions in total *)
  let _ =
    func b "mc_store_item" [ "key"; "klen"; "val"; "vlen"; "flags" ]
      ~body:(fun fb ->
        let it = call fb "pm_alloc" [ i item_size ] in
        (* BUG 1 (missing-flush): key bytes copied, never persisted. *)
        ignore (call fb "memcpy" [ gep fb it (i it_key); v "key"; v "klen" ]);
        (* BUG 2 (missing-flush): value bytes copied, never persisted. *)
        ignore (call fb "memcpy" [ gep fb it (i it_val); v "val"; v "vlen" ]);
        (* BUG 3 / BUG 4 (missing-flush): both length fields. *)
        store fb ~addr:(gep fb it (i it_klen)) (v "klen");
        store fb ~addr:(gep fb it (i it_vlen)) (v "vlen");
        (* flags and cas are handled correctly, for contrast *)
        store fb ~addr:(gep fb it (i it_flags)) (v "flags");
        store fb ~addr:(gep fb it (i it_exptime)) (i 0);
        store fb ~addr:(gep fb it (i it_cas)) (i 1);
        persist fb (gep fb it (i it_flags)) (i 24);
        let slot = call fb "mc_slot" [ v "key"; v "klen" ] in
        (* BUG 5 (missing-flush): hash-chain link. *)
        store fb ~addr:(gep fb it (i it_hash_next)) (load fb slot);
        (* BUG 6 (missing-flush): bucket head. *)
        store fb ~addr:slot it;
        call_void fb "mc_lru_push" [ it ];
        let h = hdr fb in
        let cnt = gep fb h (i h_count) in
        (* BUG 9 (missing-flush): item count. *)
        store fb ~addr:cnt (add fb (load fb cnt) (i 1));
        let st = gep fb h (i h_stat_sets) in
        (* BUG 10 (missing-flush): the sets statistic. *)
        store fb ~addr:st (add fb (load fb st) (i 1));
        call_void fb "pmem_drain" [];
        ret fb it)
  in
  let _ =
    func b "cmd_set" [] ~body:(fun fb ->
        let key = load fb (Value.global "g_key") in
        let klen = load fb (Value.global "g_klen") in
        let vl = load fb (Value.global "g_val") in
        let vlen = load fb (Value.global "g_vlen") in
        let flags = load fb (Value.global "g_flags") in
        let existing = call fb "mc_find" [ key; klen ] in
        if_ fb (ne fb existing (i 0))
          ~then_:(fun () -> call_void fb "cmd_del" [])
          ();
        let it = call fb "mc_store_item" [ key; klen; vl; vlen; flags ] in
        (* reply echo through the shared memcpy (volatile) *)
        let reply = load fb (Value.global "g_reply") in
        ignore (call fb "memcpy" [ reply; vl; vlen ]);
        ret fb it)
  in
  let _ =
    func b "cmd_get" [] ~body:(fun fb ->
        let key = load fb (Value.global "g_key") in
        let klen = load fb (Value.global "g_klen") in
        let it = call fb "mc_find" [ key; klen ] in
        if_ fb (eq fb it (i 0)) ~then_:(fun () -> ret fb (i (-1))) ();
        let vlen = load fb (gep fb it (i it_vlen)) in
        let reply = load fb (Value.global "g_reply") in
        ignore (call fb "memcpy" [ reply; gep fb it (i it_val); vlen ]);
        ret fb vlen)
  in
  let _ =
    func b "cmd_del" [] ~body:(fun fb ->
        let key = load fb (Value.global "g_key") in
        let klen = load fb (Value.global "g_klen") in
        let it = call fb "mc_find" [ key; klen ] in
        if_ fb (eq fb it (i 0)) ~then_:(fun () -> ret fb (i 0)) ();
        (* unlink from the hash chain (correctly persisted) *)
        let slot = call fb "mc_slot" [ key; klen ] in
        ignore (set fb "cur" (load fb slot));
        ignore (set fb "prevp" slot);
        while_ fb
          ~cond:(fun () -> ne fb (v "cur") (i 0))
          ~body:(fun () ->
            if_ fb (eq fb (v "cur") it)
              ~then_:(fun () ->
                let nxt = load fb (gep fb (v "cur") (i it_hash_next)) in
                store fb ~addr:(v "prevp") nxt;
                persist fb (v "prevp") (i 8);
                call_void fb "mc_lru_unlink" [ it ];
                let h = hdr fb in
                let cnt = gep fb h (i h_count) in
                store fb ~addr:cnt (sub fb (load fb cnt) (i 1));
                persist fb cnt (i 8);
                let sd = gep fb h (i h_stat_dels) in
                store fb ~addr:sd (add fb (load fb sd) (i 1));
                persist fb sd (i 8);
                call_void fb "pmem_drain" [];
                ret fb (i 1))
              ();
            ignore (set fb "prevp" (gep fb (v "cur") (i it_hash_next)));
            ignore (set fb "cur" (load fb (gep fb (v "cur") (i it_hash_next)))));
        ret fb (i 0))
  in
  (* touch: correct-by-construction exptime update, for contrast *)
  let _ =
    func b "cmd_touch" [ "exptime" ] ~body:(fun fb ->
        let key = load fb (Value.global "g_key") in
        let klen = load fb (Value.global "g_klen") in
        let it = call fb "mc_find" [ key; klen ] in
        if_ fb (eq fb it (i 0)) ~then_:(fun () -> ret fb (i 0)) ();
        let p = gep fb it (i it_exptime) in
        store fb ~addr:p (v "exptime");
        persist fb p (i 8);
        ret fb (i 1))
  in
  let _ =
    func b "cmd_count" [] ~body:(fun fb ->
        ret fb (load fb (gep fb (hdr fb) (i h_count))))
  in
  (* Recovery invariant: magic, and the hash walk agrees with the count. *)
  let _ =
    func b "mc_recover_check" [] ~body:(fun fb ->
        let base = call fb "pm_base" [] in
        store fb ~addr:(Value.global "g_mc") base;
        let h = hdr fb in
        if_ fb (ne fb (load fb (gep fb h (i h_magic))) (i magic))
          ~then_:(fun () -> ret fb (i 0))
          ();
        let nb = load fb (gep fb h (i h_nbuckets)) in
        let bp = load fb (gep fb h (i h_buckets)) in
        ignore (set fb "n" (i 0));
        for_ fb "bi" ~from:(i 0) ~below:nb ~body:(fun bi ->
            ignore (set fb "it" (load fb (gep fb bp (mul fb bi (i 8)))));
            while_ fb
              ~cond:(fun () -> ne fb (v "it") (i 0))
              ~body:(fun () ->
                let kl = load fb (gep fb (v "it") (i it_klen)) in
                if_ fb
                  (bor fb (le fb kl (i 0)) (gt fb kl (i 32)))
                  ~then_:(fun () -> ret fb (i 0))
                  ();
                ignore (set fb "n" (add fb (v "n") (i 1)));
                ignore
                  (set fb "it" (load fb (gep fb (v "it") (i it_hash_next))))));
        ret fb (eq fb (v "n") (load fb (gep fb h (i h_count)))))
  in
  let p = Builder.program b in
  Validate.check_exn p;
  p

(* ---------------------------------------------------------------------- *)

type session = {
  machine : Machine.t;
  key_buf : int;
  val_buf : int;
  g_klen : int;
  g_vlen : int;
  g_flags : int;
}

let attach ?(nbuckets = 64) machine : session =
  ignore (Compile.call machine "mc_init" [ nbuckets ]);
  let mem = Machine.mem machine in
  let g name = Machine.global_addr machine name in
  {
    machine;
    key_buf = Mem.load mem ~addr:(g "g_key") ~size:8;
    val_buf = Mem.load mem ~addr:(g "g_val") ~size:8;
    g_klen = g "g_klen";
    g_vlen = g "g_vlen";
    g_flags = g "g_flags";
  }

let set_key s key =
  let mem = Machine.mem s.machine in
  Mem.write_string mem ~addr:s.key_buf key;
  Mem.store mem ~addr:s.g_klen ~size:8 (String.length key)

let op_set s ~key ~value ~flags =
  set_key s key;
  let mem = Machine.mem s.machine in
  Mem.write_string mem ~addr:s.val_buf value;
  Mem.store mem ~addr:s.g_vlen ~size:8 (String.length value);
  Mem.store mem ~addr:s.g_flags ~size:8 flags;
  ignore (Compile.call s.machine "cmd_set" [])

let op_get s ~key =
  set_key s key;
  Compile.call s.machine "cmd_get" []

let op_del s ~key =
  set_key s key;
  Compile.call s.machine "cmd_del" []

(** The repair/bug-finding workload: sets (fresh and replacing), gets,
    touches and deletes. *)
let workload (t : Machine.t) =
  let s = attach ~nbuckets:16 t in
  for k = 0 to 29 do
    op_set s
      ~key:(Printf.sprintf "obj:%04d" k)
      ~value:(String.init 64 (fun j -> Char.chr (65 + ((k + j) mod 26))))
      ~flags:(k land 3)
  done;
  for k = 0 to 9 do
    ignore (op_get s ~key:(Printf.sprintf "obj:%04d" k))
  done;
  op_set s ~key:"obj:0003" ~value:(String.make 64 'z') ~flags:1;
  set_key s "obj:0005";
  ignore (Compile.call t "cmd_touch" [ 3600 ]);
  ignore (op_del s ~key:"obj:0007");
  ignore (op_del s ~key:"obj:0011");
  (* a final burst of sets: the server rarely goes quiet after a delete *)
  for k = 30 to 37 do
    op_set s
      ~key:(Printf.sprintf "obj:%04d" k)
      ~value:(String.init 64 (fun j -> Char.chr (97 + ((k + j) mod 26))))
      ~flags:0
  done

(** The ten injected omissions, as corpus ground truth. The two copy bugs
    hoist into [memcpy]'s persistent clone; the rest are direct field
    stores on PM-only pointers and take intraprocedural flushes. *)
let cases : Hippo_pmdk_mini.Case.t list =
  let program = lazy (build ()) in
  let mk id title shape =
    {
      Hippo_pmdk_mini.Case.id;
      system = "memcached-pm";
      issue = None;
      title;
      program;
      workload;
      entry = "cmd_set";
      expected_kind = Report.Missing_flush;
      expected_shape = shape;
      dev_fix = None;
      notes = "previously undocumented (paper §6.1)";
    }
  in
  [
    mk "mc-1" "item key bytes never persisted" (Hippo_pmdk_mini.Case.Exp_inter 1);
    mk "mc-2" "item value bytes never persisted" (Hippo_pmdk_mini.Case.Exp_inter 1);
    mk "mc-3" "item klen field unflushed" Hippo_pmdk_mini.Case.Exp_intra_flush;
    mk "mc-4" "item vlen field unflushed" Hippo_pmdk_mini.Case.Exp_intra_flush;
    mk "mc-5" "hash-chain next link unflushed" Hippo_pmdk_mini.Case.Exp_intra_flush;
    mk "mc-6" "bucket head pointer unflushed" Hippo_pmdk_mini.Case.Exp_intra_flush;
    mk "mc-7" "LRU head pointer unflushed" Hippo_pmdk_mini.Case.Exp_intra_flush;
    mk "mc-8" "old LRU head back-link unflushed" Hippo_pmdk_mini.Case.Exp_intra_flush;
    mk "mc-9" "item count unflushed" Hippo_pmdk_mini.Case.Exp_intra_flush;
    mk "mc-10" "sets statistic unflushed" Hippo_pmdk_mini.Case.Exp_intra_flush;
  ]
