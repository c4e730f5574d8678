(* qcheck properties of the persistency state machine: random sequences
   of PM stores, flushes and fences must maintain the model's invariants,
   and the durable image must change only at durability events. *)

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
    Alcotest.test_case "commit_chosen closes lines, commits oldest-first"
      `Quick test_commit_chosen_closes_lines_oldest_first;
  ]
