(** The 11 reproduced PMDK unit-test bugs (§6.1, Fig. 3).

    Each case is a miniature of the cited upstream issue, preserving the
    structural property that determined how it was fixed:

    - issues {b 452, 940, 943}: a leaf routine updates a single-cache-line
      PM field reached only through persistent pointers. Hippocrates fixes
      these with an intraprocedural [clwb]; PMDK developers instead called
      a libpmem flush helper (functionally equivalent, more portable) —
      Fig. 3's first row.
    - issues {b 447, 458, 459, 460, 461, 585, 942, 945}: the unflushed
      store sits in a helper ([memcpy], [memset], a pointer/field writer)
      that other paths apply to volatile data, so the interprocedural fix
      at the PM call site is both what developers did and what
      Hippocrates's heuristic chooses — Fig. 3's second row. Issue 945 is
      modelled two frames deep (the paper observed hoists up to 2 frames).

    The miniatures drive both the effectiveness experiment (E2: all fixed,
    zero residual reports) and the accuracy comparison (E4 / Fig. 3). *)

open Hippo_pmir
open Hippo_pmcheck

let v = Value.reg
let i = Value.imm

let build ~(name : string) (emit : Builder.t -> unit) : Program.t =
  let b = Builder.create () in
  Runtime.add b;
  emit b;
  let p = Builder.program b in
  Validate.check_exn p;
  ignore name;
  p

let run_entry entry t = ignore (Compile.call t entry [])

(* --------------------------------------------------------------------- *)
(* Issue 452: obj_store unit test left a pool-header OID field in the
   cache. The field is only ever reached through the persistent pool
   pointer, so the fix stays in-line. *)

let case_452 : Case.t =
  let entry = "test_452" in
  let program =
    lazy
      (build ~name:"pmdk-452" (fun b ->
           let open Builder in
           let _ =
             func b "pool_clear_oid" [ "pool" ] ~body:(fun fb ->
                 let f = gep fb (v "pool") (i 16) in
                 store fb ~addr:f (i 0);
                 ret_void fb)
           in
           let _ =
             func b entry [] ~body:(fun fb ->
                 let pool = call fb "pm_alloc" [ i 256 ] in
                 store fb ~addr:pool (i 0x504D444B) (* header magic *);
                 call_void fb "pmem_persist" [ pool; i 8 ];
                 call_void fb "pool_clear_oid" [ pool ];
                 call_void fb "pmem_drain" [];
                 ret_void fb)
           in
           ()))
  in
  {
    Case.id = "pmdk-452";
    system = "PMDK";
    issue = Some 452;
    title = "pool OID field not flushed after clear";
    program;
    workload = run_entry entry;
    entry;
    expected_kind = Report.Missing_flush;
    expected_shape = Case.Exp_intra_flush;
    dev_fix = Some Case.Dev_portable_flush;
    notes =
      "store is single-cache-line and PM-only; a fence already follows";
  }

(* Issue 940: API-misuse test forgot to persist the root object's size
   field. Same single-field shape as 452. *)

let case_940 : Case.t =
  let entry = "test_940" in
  let program =
    lazy
      (build ~name:"pmdk-940" (fun b ->
           let open Builder in
           let _ =
             func b "root_set_size" [ "root"; "n" ] ~body:(fun fb ->
                 let f = gep fb (v "root") (i 8) in
                 store fb ~addr:f (v "n");
                 ret_void fb)
           in
           let _ =
             func b entry [] ~body:(fun fb ->
                 let root = call fb "pm_alloc" [ i 128 ] in
                 call_void fb "root_set_size" [ root; i 64 ];
                 call_void fb "pmem_drain" [];
                 ret_void fb)
           in
           ()))
  in
  {
    Case.id = "pmdk-940";
    system = "PMDK";
    issue = Some 940;
    title = "root object size update never flushed";
    program;
    workload = run_entry entry;
    entry;
    expected_kind = Report.Missing_flush;
    expected_shape = Case.Exp_intra_flush;
    dev_fix = Some Case.Dev_portable_flush;
    notes = "PM-only leaf store; developers added pmem_flush on the field";
  }

(* Issue 943: a persistent statistics counter bumped without a flush. *)

let case_943 : Case.t =
  let entry = "test_943" in
  let program =
    lazy
      (build ~name:"pmdk-943" (fun b ->
           let open Builder in
           let _ =
             func b "stats_bump" [ "stats" ] ~body:(fun fb ->
                 let f = gep fb (v "stats") (i 24) in
                 let old = load fb f in
                 let nw = add fb old (i 1) in
                 store fb ~addr:f nw;
                 ret_void fb)
           in
           let _ =
             func b entry [] ~body:(fun fb ->
                 let stats = call fb "pm_alloc" [ i 64 ] in
                 for_ fb "k" ~from:(i 0) ~below:(i 10) ~body:(fun _ ->
                     call_void fb "stats_bump" [ stats ]);
                 call_void fb "pmem_drain" [];
                 ret_void fb)
           in
           ()))
  in
  {
    Case.id = "pmdk-943";
    system = "PMDK";
    issue = Some 943;
    title = "persistent run counter incremented in cache only";
    program;
    workload = run_entry entry;
    entry;
    expected_kind = Report.Missing_flush;
    expected_shape = Case.Exp_intra_flush;
    dev_fix = Some Case.Dev_portable_flush;
    notes = "read-modify-write on a PM-only counter inside a loop";
  }

(* --------------------------------------------------------------------- *)
(* Issue 447: redo-log entries written through a generic entry writer that
   the transaction code also applies to its volatile staging array. *)

let case_447 : Case.t =
  let entry = "test_447" in
  let program =
    lazy
      (build ~name:"pmdk-447" (fun b ->
           let open Builder in
           let _ =
             func b "entry_write" [ "buf"; "idx"; "val" ] ~body:(fun fb ->
                 let off = mul fb (v "idx") (i 8) in
                 let slot = gep fb (v "buf") off in
                 store fb ~addr:slot (v "val");
                 ret_void fb)
           in
           let _ =
             func b "redo_append" [ "log"; "idx"; "val" ] ~body:(fun fb ->
                 call_void fb "entry_write" [ v "log"; v "idx"; v "val" ];
                 ret_void fb)
           in
           let _ =
             func b entry [] ~body:(fun fb ->
                 let staging = call fb "malloc" [ i 512 ] in
                 let log = call fb "pm_alloc" [ i 512 ] in
                 for_ fb "k" ~from:(i 0) ~below:(i 64) ~body:(fun k ->
                     call_void fb "entry_write" [ staging; k; k ]);
                 for_ fb "m" ~from:(i 0) ~below:(i 8) ~body:(fun m ->
                     call_void fb "redo_append" [ log; m; m ]);
                 crash fb;
                 ret_void fb)
           in
           ()))
  in
  {
    Case.id = "pmdk-447";
    system = "PMDK";
    issue = Some 447;
    title = "redo-log entries unflushed before commit point";
    program;
    workload = run_entry entry;
    entry;
    expected_kind = Report.Missing_flush_fence;
    expected_shape = Case.Exp_inter 1;
    dev_fix = Some Case.Dev_inter_flush_fence;
    notes = "entry writer shared with the volatile staging path";
  }

(* Issue 458: zeroing a heap zone header with the shared memset. *)

let case_458 : Case.t =
  let entry = "test_458" in
  let program =
    lazy
      (build ~name:"pmdk-458" (fun b ->
           let open Builder in
           let _ =
             func b "zone_init" [ "zone" ] ~body:(fun fb ->
                 ignore (call fb "memset" [ v "zone"; i 0; i 128 ]);
                 store fb ~addr:(v "zone") (i 0x5A4F4E45);
                 flush fb (v "zone");
                 ret_void fb)
           in
           let _ =
             func b entry [] ~body:(fun fb ->
                 let scratch = call fb "malloc" [ i 64 ] in
                 ignore (call fb "memset" [ scratch; i 255; i 64 ]);
                 let zone = call fb "pm_alloc" [ i 192 ] in
                 call_void fb "zone_init" [ zone ];
                 call_void fb "pmem_drain" [];
                 crash fb;
                 ret_void fb)
           in
           ()))
  in
  {
    Case.id = "pmdk-458";
    system = "PMDK";
    issue = Some 458;
    title = "zone header zeroed through cache, only the magic flushed";
    program;
    workload = run_entry entry;
    entry;
    expected_kind = Report.Missing_flush;
    expected_shape = Case.Exp_inter 1;
    dev_fix = Some Case.Dev_inter_flush_fence;
    notes = "memset shared with volatile scratch; magic store was flushed";
  }

(* Issue 459: linked-list insert through a generic pointer writer. *)

let case_459 : Case.t =
  let entry = "test_459" in
  let program =
    lazy
      (build ~name:"pmdk-459" (fun b ->
           let open Builder in
           let _ =
             func b "ptr_write" [ "slot"; "val" ] ~body:(fun fb ->
                 store fb ~addr:(v "slot") (v "val");
                 ret_void fb)
           in
           let _ =
             func b "list_push" [ "head_slot"; "node" ] ~body:(fun fb ->
                 let old = load fb (v "head_slot") in
                 let nxt = gep fb (v "node") (i 0) in
                 call_void fb "ptr_write" [ nxt; old ];
                 call_void fb "ptr_write" [ v "head_slot"; v "node" ];
                 ret_void fb)
           in
           let _ =
             func b entry [] ~body:(fun fb ->
                 (* volatile list exercising the same writer *)
                 let vhead = call fb "malloc" [ i 8 ] in
                 let vnode = call fb "malloc" [ i 16 ] in
                 call_void fb "list_push" [ vhead; vnode ];
                 (* persistent list *)
                 let phead = call fb "pm_alloc" [ i 8 ] in
                 for_ fb "k" ~from:(i 0) ~below:(i 4) ~body:(fun _ ->
                     let n = call fb "pm_alloc" [ i 16 ] in
                     call_void fb "list_push" [ phead; n ]);
                 crash fb;
                 ret_void fb)
           in
           ()))
  in
  {
    Case.id = "pmdk-459";
    system = "PMDK";
    issue = Some 459;
    title = "list insert leaves next/head pointers volatile";
    program;
    workload = run_entry entry;
    entry;
    expected_kind = Report.Missing_flush_fence;
    expected_shape = Case.Exp_inter 2;
    dev_fix = Some Case.Dev_inter_flush_fence;
    notes =
      "pointer writer and list_push are both shared with the volatile \
       list, so the hoist lands two frames up";
  }

(* Issue 460 (after the shape of 463/Listing 2): pool descriptor updated
   with memcpy, persist deferred and then forgotten. *)

let case_460 : Case.t =
  let entry = "test_460" in
  let program =
    lazy
      (build ~name:"pmdk-460" (fun b ->
           let open Builder in
           let _ =
             func b "desc_update" [ "pool"; "src"; "len" ] ~body:(fun fb ->
                 let d = gep fb (v "pool") (i 64) in
                 ignore (call fb "memcpy" [ d; v "src"; v "len" ]);
                 ret_void fb)
           in
           let _ =
             func b entry [] ~body:(fun fb ->
                 let reply = call fb "malloc" [ i 64 ] in
                 let src = call fb "malloc" [ i 64 ] in
                 for_ fb "k" ~from:(i 0) ~below:(i 64) ~body:(fun k ->
                     store fb ~size:1 ~addr:(gep fb src k) k);
                 (* volatile use of memcpy (building a reply) *)
                 ignore (call fb "memcpy" [ reply; src; i 64 ]);
                 let pool = call fb "pm_alloc" [ i 256 ] in
                 call_void fb "desc_update" [ pool; src; i 64 ];
                 crash fb;
                 ret_void fb)
           in
           ()))
  in
  {
    Case.id = "pmdk-460";
    system = "PMDK";
    issue = Some 460;
    title = "pool descriptor memcpy never persisted";
    program;
    workload = run_entry entry;
    entry;
    expected_kind = Report.Missing_flush_fence;
    expected_shape = Case.Exp_inter 1;
    dev_fix = Some Case.Dev_inter_flush_fence;
    notes = "the paper's Listing 2 pattern: pmem_persist after memcpy";
  }

(* Issue 461: chunk header run flags via a header writer used during
   volatile rebuilds too. *)

let case_461 : Case.t =
  let entry = "test_461" in
  let program =
    lazy
      (build ~name:"pmdk-461" (fun b ->
           let open Builder in
           let _ =
             func b "hdr_write" [ "hdr"; "flags"; "size" ] ~body:(fun fb ->
                 store fb ~addr:(v "hdr") (v "flags");
                 let f2 = gep fb (v "hdr") (i 8) in
                 store fb ~addr:f2 (v "size");
                 ret_void fb)
           in
           let _ =
             func b "chunk_mark_used" [ "chunk" ] ~body:(fun fb ->
                 call_void fb "hdr_write" [ v "chunk"; i 1; i 4096 ];
                 ret_void fb)
           in
           let _ =
             func b entry [] ~body:(fun fb ->
                 (* volatile header rebuild cache *)
                 let vh = call fb "malloc" [ i 16 ] in
                 call_void fb "hdr_write" [ vh; i 0; i 0 ];
                 let chunk = call fb "pm_alloc" [ i 4096 ] in
                 call_void fb "chunk_mark_used" [ chunk ];
                 crash fb;
                 ret_void fb)
           in
           ()))
  in
  {
    Case.id = "pmdk-461";
    system = "PMDK";
    issue = Some 461;
    title = "chunk header flags/size volatile at crash";
    program;
    workload = run_entry entry;
    entry;
    expected_kind = Report.Missing_flush_fence;
    expected_shape = Case.Exp_inter 1;
    dev_fix = Some Case.Dev_inter_flush_fence;
    notes = "two stores in one helper; one hoist covers both";
  }

(* Issue 585: test code copies a blob into PM with the generic memcpy and
   omits the persist entirely. *)

let case_585 : Case.t =
  let entry = "test_585" in
  let program =
    lazy
      (build ~name:"pmdk-585" (fun b ->
           let open Builder in
           let _ =
             func b "blob_store" [ "dst"; "src"; "len" ] ~body:(fun fb ->
                 ignore (call fb "memcpy" [ v "dst"; v "src"; v "len" ]);
                 ret_void fb)
           in
           let _ =
             func b entry [] ~body:(fun fb ->
                 let src = call fb "malloc" [ i 128 ] in
                 let tmp = call fb "malloc" [ i 128 ] in
                 ignore (call fb "memcpy" [ tmp; src; i 128 ]);
                 let blob = call fb "pm_alloc" [ i 128 ] in
                 call_void fb "blob_store" [ blob; src; i 128 ];
                 crash fb;
                 ret_void fb)
           in
           ()))
  in
  {
    Case.id = "pmdk-585";
    system = "PMDK";
    issue = Some 585;
    title = "blob copied to PM without persist (API misuse)";
    program;
    workload = run_entry entry;
    entry;
    expected_kind = Report.Missing_flush_fence;
    expected_shape = Case.Exp_inter 1;
    dev_fix = Some Case.Dev_inter_flush_fence;
    notes = "memcpy dual-use from the same test body";
  }

(* Issue 942: TOID-style typed assignment helper. *)

let case_942 : Case.t =
  let entry = "test_942" in
  let program =
    lazy
      (build ~name:"pmdk-942" (fun b ->
           let open Builder in
           let _ =
             func b "toid_assign" [ "slot"; "off" ] ~body:(fun fb ->
                 store fb ~addr:(v "slot") (v "off");
                 let ty = gep fb (v "slot") (i 8) in
                 store fb ~addr:ty (i 7);
                 ret_void fb)
           in
           let _ =
             func b entry [] ~body:(fun fb ->
                 let vslot = call fb "malloc" [ i 16 ] in
                 call_void fb "toid_assign" [ vslot; i 1234 ];
                 let pslot = call fb "pm_alloc" [ i 16 ] in
                 call_void fb "toid_assign" [ pslot; i 5678 ];
                 crash fb;
                 ret_void fb)
           in
           ()))
  in
  {
    Case.id = "pmdk-942";
    system = "PMDK";
    issue = Some 942;
    title = "typed OID assignment left in cache (API misuse)";
    program;
    workload = run_entry entry;
    entry;
    expected_kind = Report.Missing_flush_fence;
    expected_shape = Case.Exp_inter 1;
    dev_fix = Some Case.Dev_inter_flush_fence;
    notes = "assignment helper used for stack-local OIDs as well";
  }

(* Issue 945: a field writer called through an object updater — the hoist
   lands two frames above the store. *)

let case_945 : Case.t =
  let entry = "test_945" in
  let program =
    lazy
      (build ~name:"pmdk-945" (fun b ->
           let open Builder in
           let _ =
             func b "field_write" [ "obj"; "off"; "val" ] ~body:(fun fb ->
                 let f = gep fb (v "obj") (v "off") in
                 store fb ~addr:f (v "val");
                 ret_void fb)
           in
           let _ =
             func b "obj_update" [ "obj"; "gen" ] ~body:(fun fb ->
                 call_void fb "field_write" [ v "obj"; i 0; v "gen" ];
                 call_void fb "field_write" [ v "obj"; i 8; i 1 ];
                 ret_void fb)
           in
           let _ =
             func b entry [] ~body:(fun fb ->
                 let shadow = call fb "malloc" [ i 64 ] in
                 call_void fb "obj_update" [ shadow; i 1 ];
                 let obj = call fb "pm_alloc" [ i 64 ] in
                 call_void fb "obj_update" [ obj; i 2 ];
                 crash fb;
                 ret_void fb)
           in
           ()))
  in
  {
    Case.id = "pmdk-945";
    system = "PMDK";
    issue = Some 945;
    title = "object update through shadow-capable updater (API misuse)";
    program;
    workload = run_entry entry;
    entry;
    expected_kind = Report.Missing_flush_fence;
    expected_shape = Case.Exp_inter 2;
    dev_fix = Some Case.Dev_inter_flush_fence;
    notes = "both intermediate frames operate on volatile shadows too";
  }

let all : Case.t list =
  [
    case_447;
    case_452;
    case_458;
    case_459;
    case_460;
    case_461;
    case_585;
    case_940;
    case_942;
    case_943;
    case_945;
  ]
