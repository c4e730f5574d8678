(* Test-only reference model of [Hippo_pmcheck.Pstate]: the list-per-line
   implementation [Pstate] replaced. Every line ever touched keeps a
   record-list bucket in a polymorphic [Hashtbl], a flush scans its line
   and the line before, and a fence re-filters a line once per record.
   Slow, but short enough to read against the paper's §4.2 rules; the
   differential property in [Test_pstate_props] runs random operation
   sequences through both and requires the same results. *)

open Hippo_pmir
open Hippo_pmcheck

type state = Dirty | Pending

type record = {
  iid : Iid.t;
  loc : Loc.t;
  stack : Trace.stack;
  addr : int;
  size : int;
  seq : int;  (** global event sequence number of the store *)
  mutable state : state;
  mutable snapshot : string;  (** bytes captured at flush time *)
  mutable flushed_by : Iid.t option;  (** the flush that moved it to pending *)
}

type t = {
  lines : (int, record list ref) Hashtbl.t;  (** keyed by start line index *)
  mutable pending : record list;
  mutable last_fence_seq : int;
  mutable flushes_total : int;
  mutable fences_total : int;
  mutable stores_pm_total : int;
}

let create () =
  {
    lines = Hashtbl.create 1024;
    pending = [];
    last_fence_seq = -1;
    flushes_total = 0;
    fences_total = 0;
    stores_pm_total = 0;
  }

let bucket t line =
  match Hashtbl.find_opt t.lines line with
  | Some b -> b
  | None ->
      let b = ref [] in
      Hashtbl.add t.lines line b;
      b

(** Record a PM store. Overlapping older {e dirty} records are superseded:
    the new store re-dirties the range, so only the newest cached value's
    durability matters. Pending records are left alone — they model
    writebacks already in flight toward the write-pending queue, which a
    later store to the same range cannot recall. *)
let store t ~iid ~loc ~stack ~addr ~size ~seq =
  t.stores_pm_total <- t.stores_pm_total + 1;
  let lo = addr and hi = addr + size in
  let line_lo = Layout.line_of_addr lo
  and line_hi = Layout.line_of_addr (hi - 1) in
  for line = line_lo to line_hi do
    let b = bucket t line in
    b :=
      List.filter
        (fun r ->
          not (r.state = Dirty && r.addr >= lo && r.addr + r.size <= hi))
        !b
  done;
  let r =
    { iid; loc; stack; addr; size; seq; state = Dirty; snapshot = "";
      flushed_by = None }
  in
  for line = line_lo to line_hi do
    let b = bucket t line in
    b := r :: !b
  done;
  r

(** Nontemporal stores bypass the cache into the write-pending queue: they
    are durable after the next fence, without any flush. *)
let store_nt t mem ~iid ~loc ~stack ~addr ~size ~seq =
  let r = store t ~iid ~loc ~stack ~addr ~size ~seq in
  r.state <- Pending;
  r.snapshot <- Mem.read_string mem ~addr ~len:size;
  t.pending <- r :: t.pending

(* Make a record's flush-time snapshot durable. The snapshot (not the
   current working bytes) is what the flush wrote back: stores issued to
   the same range after the flush but before the fence are not covered.
   Routed through Mem so the durable-image fingerprint stays current. *)
let commit_snapshot mem (r : record) =
  Mem.persist_string mem ~addr:r.addr r.snapshot

let remove_record t (r : record) =
  let line_lo = Layout.line_of_addr r.addr
  and line_hi = Layout.line_of_addr (r.addr + r.size - 1) in
  for line = line_lo to line_hi do
    match Hashtbl.find_opt t.lines line with
    | None -> ()
    | Some b -> b := List.filter (fun x -> not (x == r)) !b
  done

(** Flush the cache line containing [addr]. Dirty records intersecting the
    line capture their current working bytes and become pending ([Clwb],
    [Clflushopt]) or immediately durable ([Clflush], which the ISA orders
    with respect to stores to the same line). Returns the number of dirty
    records the flush transitioned. *)
let compare_seq a b = Int.compare a.seq b.seq

let flush t mem ~iid ~kind ~addr =
  t.flushes_total <- t.flushes_total + 1;
  if not (Layout.is_pm addr) then 0
  else begin
    let line = Layout.line_of_addr addr in
    let lo = line * Layout.cache_line and hi = (line + 1) * Layout.cache_line in
    let affected = ref [] in
    List.iter
      (fun b ->
        List.iter
          (fun r ->
            if r.state = Dirty && r.addr < hi && lo < r.addr + r.size then
              affected := r :: !affected)
          !b)
      (List.filter_map (Hashtbl.find_opt t.lines) [ line - 1; line ]);
    let affected = List.sort_uniq compare_seq !affected in
    (* Write-backs to one line complete in order, so a clflush — which
       makes the line's current contents durable right away — logically
       completes after any earlier still-in-flight flush of the same
       line. Drain those pending records first (oldest first), or their
       stale snapshots would overwrite the newer bytes at the next
       fence. *)
    (match kind with
    | Instr.Clflush ->
        let drained, in_flight =
          List.partition
            (fun r -> r.addr < hi && lo < r.addr + r.size)
            t.pending
        in
        List.iter
          (fun r ->
            commit_snapshot mem r;
            remove_record t r)
          (List.sort compare_seq drained);
        t.pending <- in_flight
    | Instr.Clwb | Instr.Clflushopt -> ());
    List.iter
      (fun r ->
        r.snapshot <- Mem.read_string mem ~addr:r.addr ~len:r.size;
        r.flushed_by <- Some iid;
        match kind with
        | Instr.Clflush ->
            commit_snapshot mem r;
            remove_record t r
        | Instr.Clwb | Instr.Clflushopt ->
            r.state <- Pending;
            t.pending <- r :: t.pending)
      affected;
    List.length affected
  end

(** A fence orders every pending flush: pending records become durable.
    Returns the number of {e distinct cache lines} drained — the
    write-pending-queue drain work a real sfence waits for. *)
let fence t mem ~seq =
  t.fences_total <- t.fences_total + 1;
  t.last_fence_seq <- seq;
  let lines = Hashtbl.create 16 in
  (* Write-backs of overlapping ranges land in store order: commit oldest
     first so the newest flushed snapshot is the one that survives. *)
  List.iter
    (fun r ->
      Hashtbl.replace lines (Layout.line_of_addr r.addr) ();
      commit_snapshot mem r;
      remove_record t r)
    (List.sort compare_seq t.pending);
  t.pending <- [];
  Hashtbl.length lines

(** All still-unpersisted records, classified (paper §4.2): a [Dirty]
    record whose store precedes the last fence is a missing-flush (a fence
    that could order a flush exists); a [Dirty] record with no subsequent
    fence is missing-flush&fence; a [Pending] record is missing-fence. *)
let unpersisted_bugs t ~(crash : Report.crash_info) : Report.bug list =
  let seen = Hashtbl.create 64 in
  let bugs = ref [] in
  Hashtbl.iter
    (fun _ b ->
      List.iter
        (fun r ->
          if not (Hashtbl.mem seen r.seq) then begin
            Hashtbl.add seen r.seq ();
            let kind =
              match r.state with
              | Pending -> Report.Missing_fence
              | Dirty ->
                  if r.seq < t.last_fence_seq then Report.Missing_flush
                  else Report.Missing_flush_fence
            in
            bugs :=
              {
                Report.kind;
                store =
                  {
                    iid = r.iid;
                    loc = r.loc;
                    stack = r.stack;
                    addr = r.addr;
                    size = r.size;
                  };
                crash;
                ordering_flush = r.flushed_by;
              }
              :: !bugs
          end)
        !b)
    t.lines;
  List.sort
    (fun (a : Report.bug) b -> Loc.compare a.store.loc b.store.loc)
    !bugs

(* ------------------------------------------------------------------ *)
(* Fault-injection hooks (the simulation harness).

   At an injected crash the harness perturbs the durable image beyond the
   deterministic-pessimistic endpoint: it may evict a subset of in-flight
   write-backs (reordered WPQ drain across lines) and tear dirty cache
   lines (partial eviction at 8-byte store-atomicity granularity). Both
   entry points below preserve the machine's physical ordering rules, so
   no injected schedule can fabricate an impossible image. *)

let dedup_by_seq records =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      if Hashtbl.mem seen r.seq then false
      else begin
        Hashtbl.add seen r.seq ();
        true
      end)
    records

(** Every still-dirty record, oldest store first (deterministic iteration
    base for fault injection and tests). *)
let dirty_records t =
  let acc = ref [] in
  Hashtbl.iter
    (fun _ b -> List.iter (fun r -> if r.state = Dirty then acc := r :: !acc) !b)
    t.lines;
  List.sort compare_seq (dedup_by_seq !acc)

(** In-flight (flushed, unfenced) records, oldest first. *)
let pending_records t = List.sort compare_seq (dedup_by_seq t.pending)

let lines_of r =
  let lo = Layout.line_of_addr r.addr
  and hi = Layout.line_of_addr (r.addr + r.size - 1) in
  List.init (hi - lo + 1) (fun i -> lo + i)

(** [commit_chosen t mem chosen] makes a chosen subset of the in-flight
    write-backs durable, modelling a write-pending queue that drained
    some entries before power was lost. Write-backs to one cache line
    complete in store order (the invariant a clflush's drain keeps), so
    the chosen set is first {e closed}: picking a record drags along every
    older pending record sharing a cache line with it, transitively.
    Committing then proceeds oldest-first, exactly like {!fence} — an
    injected schedule can choose {e which lines} drained, never the
    within-line order. Returns the number of records made durable. *)
let commit_chosen t mem chosen =
  let pend = pending_records t in
  let picked = Hashtbl.create 16 in
  List.iter (fun r -> if chosen r then Hashtbl.replace picked r.seq ()) pend;
  (* close under "older pending record sharing a cache line with a
     picked record"; iterate to a fixpoint since dragged records widen
     the picked line set *)
  let share_line a b =
    List.exists (fun l -> List.mem l (lines_of b)) (lines_of a)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        if
          (not (Hashtbl.mem picked r.seq))
          && List.exists
               (fun r' ->
                 Hashtbl.mem picked r'.seq
                 && r'.seq > r.seq && share_line r r')
               pend
        then begin
          Hashtbl.replace picked r.seq ();
          changed := true
        end)
      pend
  done;
  let drained, in_flight =
    List.partition (fun r -> Hashtbl.mem picked r.seq) t.pending
  in
  let drained = List.sort compare_seq (dedup_by_seq drained) in
  List.iter
    (fun r ->
      commit_snapshot mem r;
      remove_record t r)
    drained;
  t.pending <- in_flight;
  List.length drained

(** [tear_dirty mem r ~keep_word] partially evicts a dirty record: each
    8-byte-aligned word of its range whose index satisfies [keep_word]
    has its {e working} bytes copied into the durable image (stores are
    word-atomic on the simulated machine, so tearing never splits a
    word). The record itself stays dirty — tearing models an eviction
    the program never observed. *)
let tear_dirty mem (r : record) ~keep_word =
  let lo = r.addr and hi = r.addr + r.size in
  let w0 = lo / 8 and w1 = (hi - 1) / 8 in
  for w = w0 to w1 do
    if keep_word (w - w0) then begin
      let a = max lo (w * 8) and b = min hi ((w + 1) * 8) in
      Mem.persist_range mem ~addr:a ~size:(b - a)
    end
  done

(** Count of records not yet durable (dirty or pending). *)
let unpersisted_count t =
  let seen = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ b ->
      List.iter (fun r -> Hashtbl.replace seen r.seq ()) !b)
    t.lines;
  Hashtbl.length seen

let pending_count t = List.length t.pending
