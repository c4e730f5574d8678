(** P-CLHT: a persistent cache-line hash table after RECIPE's P-CLHT
    (Lee et al., SOSP'19), the research-prototype subject of §6.1.

    Each bucket is exactly one cache line: three (key, value) slot pairs,
    an overflow-bucket pointer, and a metadata word. CLHT's persistence
    discipline is line-granular: mutate the line, [clwb] it, [sfence] —
    which this implementation follows everywhere except at the two
    injected, previously-undocumented bugs the paper found:

    - {b bug 1} (missing-flush): the update-existing-key path overwrites
      the value slot but skips the line flush (the fence at the end of
      the operation still runs);
    - {b bug 2} (missing-fence): the bucket-overflow path links the new
      bucket and flushes the link, but returns without a fence.

    Keys and values are nonzero machine words, as in CLHT proper. *)

open Hippo_pmir
open Hippo_pmcheck

let v = Value.reg
let i = Value.imm

let slots_per_bucket = 3
let off_next = 48

(* Header: [0] magic, [8] nbuckets, [16] buckets, [24] size. *)
let magic = 0x434C4854 (* "CLHT" *)

let build () : Program.t =
  let b = Builder.create () in
  Hippo_pmdk_mini.Runtime.add b;
  let open Builder in
  global b "g_clht" 8;
  let _ =
    func b "clht_bucket" [ "key" ] ~body:(fun fb ->
        let hdr = load fb (Value.global "g_clht") in
        let nb = load fb (gep fb hdr (i 8)) in
        let bp = load fb (gep fb hdr (i 16)) in
        let h = band fb (mul fb (v "key") (i 0x1B873593)) (i 0x3FFFFFFF) in
        let idx = rem fb h nb in
        ret fb (gep fb bp (mul fb idx (i 64))))
  in
  let _ =
    func b "clht_init" [ "nbuckets" ] ~body:(fun fb ->
        let hdr = call fb "pm_alloc" [ i 64 ] in
        let nbytes = mul fb (v "nbuckets") (i 64) in
        let bp = call fb "pm_alloc" [ nbytes ] in
        ignore (call fb "memset" [ bp; i 0; nbytes ]);
        call_void fb "pmem_persist" [ bp; nbytes ];
        store fb ~addr:(gep fb hdr (i 8)) (v "nbuckets");
        store fb ~addr:(gep fb hdr (i 16)) bp;
        store fb ~addr:(gep fb hdr (i 24)) (i 0);
        store fb ~addr:hdr (i magic);
        call_void fb "pmem_persist" [ hdr; i 32 ];
        store fb ~addr:(Value.global "g_clht") hdr;
        ret fb hdr)
  in
  let _ =
    func b "clht_size_add" [ "delta" ] ~body:(fun fb ->
        let hdr = load fb (Value.global "g_clht") in
        let sz = gep fb hdr (i 24) in
        store fb ~addr:sz (add fb (load fb sz) (v "delta"));
        flush fb sz;
        ret_void fb)
  in
  (* put: returns 1 on fresh insert, 2 on update *)
  let _ =
    func b "clht_put" [ "key"; "value" ] ~body:(fun fb ->
        ignore (set fb "bkt" (call fb "clht_bucket" [ v "key" ]));
        ignore (set fb "last" (v "bkt"));
        while_ fb
          ~cond:(fun () -> ne fb (v "bkt") (i 0))
          ~body:(fun () ->
            for_ fb "s" ~from:(i 0) ~below:(i slots_per_bucket)
              ~body:(fun s ->
                let kslot = gep fb (v "bkt") (mul fb s (i 16)) in
                if_ fb
                  (eq fb (load fb kslot) (v "key"))
                  ~then_:(fun () ->
                    (* BUG 1 (missing-flush): value slot updated, line
                       never flushed; only the trailing fence runs. *)
                    store fb ~addr:(gep fb kslot (i 8)) (v "value");
                    fence fb ();
                    (* durability point: the update must be durable once
                       the operation returns (PMTest-style annotation) *)
                    crash fb;
                    ret fb (i 2))
                  ());
            ignore (set fb "last" (v "bkt"));
            ignore (set fb "bkt" (load fb (gep fb (v "bkt") (i off_next)))));
        (* insert into a free slot of the last chain bucket *)
        for_ fb "s2" ~from:(i 0) ~below:(i slots_per_bucket) ~body:(fun s ->
            let kslot = gep fb (v "last") (mul fb s (i 16)) in
            if_ fb
              (eq fb (load fb kslot) (i 0))
              ~then_:(fun () ->
                store fb ~addr:(gep fb kslot (i 8)) (v "value");
                store fb ~addr:kslot (v "key");
                flush fb kslot;
                fence fb ();
                call_void fb "clht_size_add" [ i 1 ];
                fence fb ();
                crash fb;
                ret fb (i 1))
              ());
        (* overflow: chain a fresh one-line bucket *)
        let nb = call fb "pm_alloc" [ i 64 ] in
        ignore (call fb "memset" [ nb; i 0; i 64 ]);
        call_void fb "pmem_persist" [ nb; i 64 ];
        store fb ~addr:(gep fb nb (i 8)) (v "value");
        store fb ~addr:nb (v "key");
        flush fb nb;
        call_void fb "clht_size_add" [ i 1 ];
        fence fb ();
        let link = gep fb (v "last") (i off_next) in
        store fb ~addr:link nb;
        flush fb link;
        (* BUG 2 (missing-fence): return without ordering the link flush. *)
        crash fb;
        ret fb (i 1))
  in
  let _ =
    func b "clht_get" [ "key" ] ~body:(fun fb ->
        ignore (set fb "bkt" (call fb "clht_bucket" [ v "key" ]));
        while_ fb
          ~cond:(fun () -> ne fb (v "bkt") (i 0))
          ~body:(fun () ->
            for_ fb "s" ~from:(i 0) ~below:(i slots_per_bucket)
              ~body:(fun s ->
                let kslot = gep fb (v "bkt") (mul fb s (i 16)) in
                if_ fb
                  (eq fb (load fb kslot) (v "key"))
                  ~then_:(fun () -> ret fb (load fb (gep fb kslot (i 8))))
                  ());
            ignore (set fb "bkt" (load fb (gep fb (v "bkt") (i off_next)))));
        ret fb (i 0))
  in
  let _ =
    func b "clht_del" [ "key" ] ~body:(fun fb ->
        ignore (set fb "bkt" (call fb "clht_bucket" [ v "key" ]));
        while_ fb
          ~cond:(fun () -> ne fb (v "bkt") (i 0))
          ~body:(fun () ->
            for_ fb "s" ~from:(i 0) ~below:(i slots_per_bucket)
              ~body:(fun s ->
                let kslot = gep fb (v "bkt") (mul fb s (i 16)) in
                if_ fb
                  (eq fb (load fb kslot) (v "key"))
                  ~then_:(fun () ->
                    store fb ~addr:kslot (i 0);
                    flush fb kslot;
                    fence fb ();
                    call_void fb "clht_size_add" [ i (-1) ];
                    fence fb ();
                    ret fb (i 1))
                  ());
            ignore (set fb "bkt" (load fb (gep fb (v "bkt") (i off_next)))));
        ret fb (i 0))
  in
  (* Recovery: the header is the pool's first allocation, so a restart can
     rebind the volatile root pointer before validating. *)
  let _ =
    func b "clht_recover_check" [] ~body:(fun fb ->
        let base = call fb "pm_base" [] in
        store fb ~addr:(Value.global "g_clht") base;
        ret fb (call fb "clht_check" []))
  in
  let _ =
    func b "clht_check" [] ~body:(fun fb ->
        let hdr = load fb (Value.global "g_clht") in
        if_ fb (ne fb (load fb hdr) (i magic))
          ~then_:(fun () -> ret fb (i 0))
          ();
        let nbk = load fb (gep fb hdr (i 8)) in
        let bp = load fb (gep fb hdr (i 16)) in
        ignore (set fb "n" (i 0));
        for_ fb "bi" ~from:(i 0) ~below:nbk ~body:(fun bi ->
            ignore (set fb "bkt" (gep fb bp (mul fb bi (i 64))));
            while_ fb
              ~cond:(fun () -> ne fb (v "bkt") (i 0))
              ~body:(fun () ->
                for_ fb "s" ~from:(i 0) ~below:(i slots_per_bucket)
                  ~body:(fun s ->
                    if_ fb
                      (ne fb (load fb (gep fb (v "bkt") (mul fb s (i 16)))) (i 0))
                      ~then_:(fun () ->
                        ignore (set fb "n" (add fb (v "n") (i 1))))
                      ());
                ignore
                  (set fb "bkt" (load fb (gep fb (v "bkt") (i off_next))))));
        ret fb (eq fb (v "n") (load fb (gep fb hdr (i 24)))))
  in
  let p = Builder.program b in
  Validate.check_exn p;
  p

(* ---------------------------------------------------------------------- *)
(* Host-side session: an interpreter with an initialized table. The
   {!App} adapter drives it with string keys mapped onto nonzero words. *)

type session = { interp : Interp.t; hdr_addr : int }

let attach ?(nbuckets = 1024) interp : session =
  let hdr = Compile.call interp "clht_init" [ nbuckets ] in
  { interp; hdr_addr = hdr }

(* Sessions are hot paths (the load generator drives millions of ops):
   no trace by default. *)
let start ?(config = { Interp.default_config with Interp.trace = false })
    ?nbuckets prog : session =
  attach ?nbuckets (Interp.create config prog)

(** [recover_attach interp] rebinds the table root on an interpreter
    restarted over a crash image: [clht_recover_check] re-derives the
    header from [pm_base] (the pool's first allocation) and validates
    it; the verdict is discarded here — callers judge consistency with
    {!check}. *)
let recover_attach interp : session =
  ignore (Compile.call interp "clht_recover_check" []);
  let hdr =
    Mem.load (Interp.mem interp)
      ~addr:(Interp.global_addr interp "g_clht")
      ~size:8
  in
  { interp; hdr_addr = hdr }

(** The table's size field (header offset 24), read host-side: CLHT has
    no size query function. *)
let count s =
  Mem.load (Interp.mem s.interp) ~addr:(s.hdr_addr + 24) ~size:8

let check s = Compile.call s.interp "clht_check" [] <> 0

(** The example workload from RECIPE's evaluation: standard insertion,
    update, lookup and deletion traffic. 60 keys into 16 three-slot
    buckets force overflow chains, exercising the buggy link path. *)
let workload (t : Interp.t) =
  ignore (Compile.call t "clht_init" [ 16 ]);
  for k = 1 to 60 do
    ignore (Compile.call t "clht_put" [ k; k * 100 ])
  done;
  for k = 1 to 10 do
    ignore (Compile.call t "clht_put" [ k; k * 200 ]) (* updates: bug 1 *)
  done;
  for k = 1 to 60 do
    ignore (Compile.call t "clht_get" [ k ])
  done;
  ignore (Compile.call t "clht_del" [ 7 ]);
  ignore (Compile.call t "clht_del" [ 23 ])

(** Injected-bug ground truth for the corpus harness. *)
let cases : Hippo_pmdk_mini.Case.t list =
  let program = lazy (build ()) in
  [
    {
      Hippo_pmdk_mini.Case.id = "pclht-1";
      system = "P-CLHT";
      issue = None;
      title = "value-slot update skips the line flush";
      program;
      workload;
      entry = "clht_put";
      expected_kind = Report.Missing_flush;
      expected_shape = Hippo_pmdk_mini.Case.Exp_intra_flush;
      dev_fix = None;
      notes = "previously undocumented (paper §6.1)";
    };
    {
      Hippo_pmdk_mini.Case.id = "pclht-2";
      system = "P-CLHT";
      issue = None;
      title = "overflow-bucket link flushed but never fenced";
      program;
      workload;
      entry = "clht_put";
      expected_kind = Report.Missing_fence;
      expected_shape = Hippo_pmdk_mini.Case.Exp_intra_fence;
      dev_fix = None;
      notes = "previously undocumented (paper §6.1)";
    };
  ]
