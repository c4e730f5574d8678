(* qcheck properties of the persistency state machine: random sequences
   of PM stores, flushes and fences must maintain the model's invariants,
   the durable image must change only at durability events, and [Pstate]
   must agree with [Pstate_model], the reference implementation it
   replaced. *)

open Hippo_pmir
open Hippo_pmcheck

type op = Op_store of int * int | Op_flush of int * Instr.flush_kind | Op_fence

let gen_ops : op list QCheck.Gen.t =
  let open QCheck.Gen in
  let slot = int_range 0 7 in
  list_size (int_range 1 40)
    (oneof
       [
         map2 (fun s v -> Op_store (s, v)) slot (int_range 1 255);
         map2
           (fun s k -> Op_flush (s, k))
           slot
           (oneofl [ Instr.Clwb; Instr.Clflushopt; Instr.Clflush ]);
         return Op_fence;
       ])

let arb_ops =
  QCheck.make gen_ops
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Op_store (s, v) -> Printf.sprintf "store %d<-%d" s v
             | Op_flush (s, k) ->
                 Printf.sprintf "flush.%s %d" (Instr.flush_kind_to_string k) s
             | Op_fence -> "fence")
           ops))

(* Images are trimmed at their last nonzero byte; zero-extend one to the
   default PM segment to read it at an absolute offset. *)
let zero_extended img =
  let full = Bytes.make (1 lsl 24) '\000' in
  Bytes.blit img 0 full 0 (Bytes.length img);
  full

(* replay an op list through a fresh machine, returning the state and the
   history of durable images *)
let replay ops =
  let ps = Pstate.create () in
  let m = Mem.create [] in
  let base = Mem.alloc_pm m 1024 in
  let seq = ref 0 in
  let images = ref [ Mem.crash_image m ] in
  List.iter
    (fun op ->
      (match op with
      | Op_store (s, v) ->
          let addr = base + (s * 64) in
          Mem.store m ~addr ~size:8 v;
          ignore
            (Pstate.store ps ~iid:(Iid.fresh ~func:"t") ~loc:Loc.none
               ~stack:[] ~addr ~size:8 ~seq:!seq)
      | Op_flush (s, k) ->
          ignore
            (Pstate.flush ps m ~iid:(Iid.fresh ~func:"t") ~kind:k
               ~addr:(base + (s * 64)))
      | Op_fence -> ignore (Pstate.fence ps m ~seq:!seq));
      incr seq;
      images := Mem.crash_image m :: !images)
    ops;
  (ps, m, List.rev !images)

let prop_no_pending_after_fence =
  QCheck.Test.make ~name:"fence leaves nothing pending" ~count:300 arb_ops
    (fun ops ->
      let ps, _, _ = replay (ops @ [ Op_fence ]) in
      Pstate.pending_count ps = 0)

let prop_fully_persisted_after_flush_all_fence =
  QCheck.Test.make
    ~name:"flushing every line then fencing persists everything" ~count:300
    arb_ops
    (fun ops ->
      let all_flushes = List.init 8 (fun s -> Op_flush (s, Instr.Clwb)) in
      let ps, m, _ = replay (ops @ all_flushes @ [ Op_fence ]) in
      Pstate.unpersisted_count ps = 0
      && Bytes.equal (Mem.crash_image m) (Mem.working_image m))

let prop_image_changes_only_at_durability_events =
  QCheck.Test.make
    ~name:"durable image changes only at clflush or fence" ~count:300 arb_ops
    (fun ops ->
      let _, _, images = replay ops in
      let rec walk ops images =
        match (ops, images) with
        | op :: ops', before :: (after :: _ as images') ->
            let durability_event =
              match op with
              | Op_flush (_, Instr.Clflush) | Op_fence -> true
              | _ -> false
            in
            (durability_event || Bytes.equal before after)
            && walk ops' images'
        | _ -> true
      in
      walk ops images)

let prop_bug_counts_consistent =
  QCheck.Test.make
    ~name:"reported bugs equal the unpersisted-record count" ~count:300
    arb_ops
    (fun ops ->
      let ps, _, _ = replay ops in
      let crash : Report.crash_info =
        { crash_iid = None; crash_loc = Loc.none; crash_stack = [] }
      in
      List.length (Pstate.unpersisted_bugs ps ~crash)
      = Pstate.unpersisted_count ps)

let prop_missing_fence_only_when_pending =
  QCheck.Test.make
    ~name:"missing-fence reports correspond to pending records" ~count:300
    arb_ops
    (fun ops ->
      let ps, _, _ = replay ops in
      let crash : Report.crash_info =
        { crash_iid = None; crash_loc = Loc.none; crash_stack = [] }
      in
      let bugs = Pstate.unpersisted_bugs ps ~crash in
      let fence_bugs =
        List.length
          (List.filter
             (fun (b : Report.bug) -> b.Report.kind = Report.Missing_fence)
             bugs)
      in
      fence_bugs = Pstate.pending_count ps)

(* ------------------------------------------------------------------ *)
(* Differential property: [Pstate] against [Pstate_model] over twin
   memories. The sequences cover four PM lines with stores of every size
   at any offset (8-byte ones straddling lines included), nontemporal
   stores, the three flush kinds at PM and volatile addresses, fences and
   both fault-injection hooks. Sites repeat, so bugs tie on location. *)

type mop =
  | M_store of { off : int; size : int; value : int; nt : bool; site : int }
  | M_flush of { off : int option; kind : Instr.flush_kind }
      (** [None]: a volatile address *)
  | M_fence
  | M_commit of int  (** which write-backs drain: a mask over seqs *)
  | M_tear of { pick : int; words : int }

let gen_mop : mop QCheck.Gen.t =
  let open QCheck.Gen in
  let kind = oneofl [ Instr.Clwb; Instr.Clflushopt; Instr.Clflush ] in
  frequency
    [
      ( 6,
        let* size = oneofl [ 1; 2; 4; 8 ] in
        let* off = int_range 0 (256 - size) in
        let* value = int in
        let* nt = frequency [ (5, return false); (1, return true) ] in
        let+ site = int_range 1 3 in
        M_store { off; size; value; nt; site } );
      ( 4,
        let* off =
          frequency
            [ (5, map Option.some (int_range 0 255)); (1, return None) ]
        in
        let+ kind = kind in
        M_flush { off; kind } );
      (2, return M_fence);
      (1, map (fun mask -> M_commit mask) int);
      (1, map2 (fun pick words -> M_tear { pick; words }) nat int);
    ]

let mop_to_string = function
  | M_store { off; size; value; nt; site } ->
      Printf.sprintf "store%s.%d +%d<-%d @%d" (if nt then ".nt" else "") size
        off value site
  | M_flush { off; kind } ->
      Printf.sprintf "flush.%s %s"
        (Instr.flush_kind_to_string kind)
        (match off with Some o -> "+" ^ string_of_int o | None -> "vol")
  | M_fence -> "fence"
  | M_commit mask -> Printf.sprintf "commit_chosen %x" mask
  | M_tear { pick; words } -> Printf.sprintf "tear %d/%x" pick words

let arb_mops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 60) gen_mop)
    ~print:(fun ops -> String.concat "; " (List.map mop_to_string ops))

let seqs_of = List.map (fun (r : Pstate.record) -> r.seq)
let model_seqs_of = List.map (fun (r : Pstate_model.record) -> r.seq)

(* the model's report order with ties on location put in store order;
   a store's iid serial is its seq *)
let by_site_then_seq (a : Report.bug) (b : Report.bug) =
  match Loc.compare a.store.loc b.store.loc with
  | 0 -> Int.compare (Iid.serial a.store.iid) (Iid.serial b.store.iid)
  | c -> c

let prop_agrees_with_model =
  QCheck.Test.make ~name:"pstate agrees with the list-per-line model"
    ~count:300 ~long_factor:50 arb_mops (fun mops ->
      let ps = Pstate.create () and model = Pstate_model.create () in
      let m = Mem.create [] and mm = Mem.create [] in
      let base = Mem.alloc_pm m 256 in
      ignore (Mem.alloc_pm mm 256);
      let crash : Report.crash_info =
        { crash_iid = None; crash_loc = Loc.none; crash_stack = [] }
      in
      List.iteri
        (fun seq op ->
          let fail what got want =
            QCheck.Test.fail_reportf "op %d (%s): %s %d, model %d" seq
              (mop_to_string op) what got want
          in
          let agree what got want = if got <> want then fail what got want in
          (match op with
          | M_store { off; size; value; nt; site } ->
              let addr = base + off
              and iid = Iid.of_serial ~func:"store" seq
              and loc = Loc.make ~file:"t.c" ~line:site in
              Mem.store m ~addr ~size value;
              Mem.store mm ~addr ~size value;
              if nt then begin
                Pstate.store_nt ps m ~iid ~loc ~stack:[] ~addr ~size ~seq;
                Pstate_model.store_nt model mm ~iid ~loc ~stack:[] ~addr ~size
                  ~seq
              end
              else begin
                ignore (Pstate.store ps ~iid ~loc ~stack:[] ~addr ~size ~seq);
                ignore
                  (Pstate_model.store model ~iid ~loc ~stack:[] ~addr ~size
                     ~seq)
              end
          | M_flush { off; kind } ->
              let addr =
                match off with Some o -> base + o | None -> Layout.vol_base
              and iid = Iid.of_serial ~func:"flush" seq in
              agree "flush moved"
                (Pstate.flush ps m ~iid ~kind ~addr)
                (Pstate_model.flush model mm ~iid ~kind ~addr)
          | M_fence ->
              agree "fence drained"
                (Pstate.fence ps m ~seq)
                (Pstate_model.fence model mm ~seq)
          | M_commit mask ->
              let chosen s = (mask lsr (s mod 60)) land 1 = 1 in
              agree "commit_chosen drained"
                (Pstate.commit_chosen ps m (fun r -> chosen r.seq))
                (Pstate_model.commit_chosen model mm (fun r -> chosen r.seq))
          | M_tear { pick; words } -> (
              let keep_word w = (words lsr w) land 1 = 1 in
              match
                (Pstate.dirty_records ps, Pstate_model.dirty_records model)
              with
              | (_ :: _ as ds), (_ :: _ as ds') ->
                  Pstate.tear_dirty m
                    (List.nth ds (pick mod List.length ds))
                    ~keep_word;
                  Pstate_model.tear_dirty mm
                    (List.nth ds' (pick mod List.length ds'))
                    ~keep_word
              | _ -> ()));
          if not (Bytes.equal (Mem.crash_image m) (Mem.crash_image mm)) then
            QCheck.Test.fail_reportf "op %d (%s): crash images differ" seq
              (mop_to_string op);
          if not (Bytes.equal (Mem.working_image m) (Mem.working_image mm))
          then
            QCheck.Test.fail_reportf "op %d (%s): working images differ" seq
              (mop_to_string op);
          if
            seqs_of (Pstate.dirty_records ps)
            <> model_seqs_of (Pstate_model.dirty_records model)
            || seqs_of (Pstate.pending_records ps)
               <> model_seqs_of (Pstate_model.pending_records model)
          then
            QCheck.Test.fail_reportf "op %d (%s): live records differ" seq
              (mop_to_string op);
          agree "unpersisted" (Pstate.unpersisted_count ps)
            (Pstate_model.unpersisted_count model);
          agree "pending" (Pstate.pending_count ps)
            (Pstate_model.pending_count model);
          agree "stores" (Pstate.stores ps) model.stores_pm_total;
          agree "flushes" (Pstate.flushes ps) model.flushes_total;
          agree "fences" (Pstate.fences ps) model.fences_total;
          if
            Pstate.unpersisted_bugs ps ~crash
            <> List.stable_sort by_site_then_seq
                 (Pstate_model.unpersisted_bugs model ~crash)
          then
            QCheck.Test.fail_reportf "op %d (%s): bug reports differ" seq
              (mop_to_string op))
        mops;
      true)

(* ------------------------------------------------------------------ *)
(* fault-injection hook: commit_chosen models a partial write-pending
   queue drain but must preserve the per-line store-order (clflush
   drain) invariant — choosing a write-back drags every older pending
   record of its cache line in, and commits run oldest-first *)

let test_commit_chosen_closes_lines_oldest_first () =
  let ps = Pstate.create () in
  let m = Mem.create [] in
  let base = Mem.alloc_pm m 256 in
  let seq = ref 0 in
  let store_flush addr v =
    Mem.store m ~addr ~size:8 v;
    ignore
      (Pstate.store ps ~iid:(Iid.fresh ~func:"t") ~loc:Loc.none ~stack:[]
         ~addr ~size:8 ~seq:!seq);
    incr seq;
    ignore
      (Pstate.flush ps m ~iid:(Iid.fresh ~func:"t") ~kind:Instr.Clwb ~addr)
  in
  store_flush base 0x11 (* line 0, oldest in-flight write-back *);
  store_flush base 0x22 (* line 0, newer write-back of the same word *);
  store_flush (base + 64) 0x33 (* line 1, independent *);
  let pend = Pstate.pending_records ps in
  Alcotest.(check int) "three write-backs in flight" 3 (List.length pend);
  Alcotest.(check int) "nothing drains when nothing is chosen" 0
    (Pstate.commit_chosen ps m (fun _ -> false));
  let durable addr =
    Int64.to_int
      (Bytes.get_int64_le (zero_extended (Mem.crash_image m))
         (addr - Layout.pm_base))
  in
  (* choose only the NEWER line-0 record: the older one must be dragged
     along, and oldest-first commit leaves the newer value durable *)
  let mid = List.nth pend 1 in
  let drained =
    Pstate.commit_chosen ps m (fun r -> r.Pstate.seq = mid.Pstate.seq)
  in
  Alcotest.(check int) "older same-line record dragged along" 2 drained;
  Alcotest.(check int) "newest chosen value is what ends up durable" 0x22
    (durable base);
  Alcotest.(check int) "unchosen line did not drain" 0 (durable (base + 64));
  Alcotest.(check int) "unchosen line still in flight" 1
    (Pstate.pending_count ps);
  ignore (Pstate.fence ps m ~seq:!seq);
  Alcotest.(check int) "fence drains the remainder" 0
    (Pstate.pending_count ps);
  Alcotest.(check int) "line 1 durable after the fence" 0x33
    (durable (base + 64))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_no_pending_after_fence;
    QCheck_alcotest.to_alcotest prop_fully_persisted_after_flush_all_fence;
    QCheck_alcotest.to_alcotest prop_image_changes_only_at_durability_events;
    QCheck_alcotest.to_alcotest prop_bug_counts_consistent;
    QCheck_alcotest.to_alcotest prop_missing_fence_only_when_pending;
    QCheck_alcotest.to_alcotest prop_agrees_with_model;
    Alcotest.test_case "commit_chosen closes lines, commits oldest-first"
      `Quick test_commit_chosen_closes_lines_oldest_first;
  ]
