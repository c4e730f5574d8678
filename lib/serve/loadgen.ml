(** The YCSB load generator: turns workload op streams into protocol
    request streams and tallies reply verdicts.

    Determinism is the whole design. The generator is parameterized by
    {e logical} workers, decoupled from physical [--jobs]: worker [w] of
    [W] owns the disjoint keyspace [{k*W + w}] (a round-robin remap of
    its workload's logical keys) and draws its ops from the substream
    [Stream.derive ~seed [ns; w]]. Because keyspaces are disjoint, every
    reply verdict (found/absent, deleted/missed) is a function of that
    worker's own op prefix alone — the summed verdict counts are
    identical under any interleaving of workers and any [--jobs] width.

    Neither app supports scans, so [Scan (k, len)] is emulated as [len]
    point GETs (exactly what {!Hippo_apps.Redis_mini.run_op} does) and
    read-modify-write as GET + SET. *)

open Hippo_ycsb

(* Substream namespaces (arbitrary distinct tags). *)
let ns_run = 0x10ad

(** Worker [w]'s slice of [total] (even split, remainder to the first
    workers). *)
let share ~total ~workers w = (total / workers) + (if w < total mod workers then 1 else 0)

(** The global key id behind worker [w]'s logical key [k]. *)
let global_key ~workers ~worker k = (k * workers) + worker

let key_string ~workers ~worker k =
  Workload.key_bytes (global_key ~workers ~worker k)

(** Worker [w]'s workload spec for a [records]-record [ops]-op run. *)
let worker_spec ~kind ~records ~ops ~workers ~worker : Workload.spec =
  {
    Workload.kind;
    record_count = share ~total:records ~workers worker;
    op_count = share ~total:ops ~workers worker;
    max_scan_len = 10;
  }

let worker_seed ~seed ~worker = Hippo_parallel.Stream.derive ~seed [ ns_run; worker ]

(** The load phase: SET every record key (version 0), sequentially. *)
let load_requests ~records ~workers ~worker : Protocol.request Seq.t =
  let r = share ~total:records ~workers worker in
  let rec node k () =
    if k >= r then Seq.Nil
    else
      let g = global_key ~workers ~worker k in
      Seq.Cons
        ( Protocol.Set
            {
              key = Workload.key_bytes g;
              value = Workload.value_bytes ~k:g ~version:0;
            },
          node (k + 1) )
  in
  node 0

(** The run phase: the worker's YCSB op stream expanded to requests.
    Updates and the write half of read-modify-write carry a fresh
    version (the worker's op ordinal), so the final store contents pin
    the last writer of every key. Like {!Workload.seq}, traversals from
    the head replay identically but intermediate nodes are ephemeral. *)
let run_requests ~kind ~records ~ops ~workers ~worker ~seed :
    Protocol.request Seq.t =
 fun () ->
  let spec = worker_spec ~kind ~records ~ops ~workers ~worker in
  let wseed = worker_seed ~seed ~worker in
  let key = key_string ~workers ~worker in
  let ordinal = ref 0 in
  let expand (op : Workload.op) : Protocol.request list =
    let v = 1 + !ordinal in
    incr ordinal;
    match op with
    | Read k -> [ Get { key = key k } ]
    | Update k ->
        let g = global_key ~workers ~worker k in
        [ Set { key = key k; value = Workload.value_bytes ~k:g ~version:v } ]
    | Insert k ->
        let g = global_key ~workers ~worker k in
        [ Set { key = key k; value = Workload.value_bytes ~k:g ~version:0 } ]
    | Scan (k, len) -> List.init len (fun i -> Protocol.Get { key = key (k + i) })
    | Read_modify_write k ->
        let g = global_key ~workers ~worker k in
        [
          Get { key = key k };
          Set { key = key k; value = Workload.value_bytes ~k:g ~version:v };
        ]
  in
  Seq.concat_map (fun op -> List.to_seq (expand op)) (Workload.seq spec ~seed:wseed) ()

(** Records present after the run phase: the loaded records plus the
    run's inserts (workloads D and E), counted by streaming the ops (no
    interpreter involved — a million ops cost well under a second). *)
let final_records ~kind ~records ~ops ~workers ~worker ~seed =
  let spec = worker_spec ~kind ~records ~ops ~workers ~worker in
  match kind with
  | Workload.Load -> spec.record_count
  | _ ->
      let wseed = worker_seed ~seed ~worker in
      Seq.fold_left
        (fun acc (op : Workload.op) ->
          match op with Insert _ -> acc + 1 | _ -> acc)
        spec.record_count
        (Workload.seq spec ~seed:wseed)

(* ------------------------------------------------------------------ *)
(* Verdict tallies *)

type verdicts = {
  ok : int;  (** SET acknowledgements *)
  found : int;
  absent : int;
  deleted : int;
  missed : int;  (** DEL of an absent key *)
  unsupported : int;
  counted : int;
  errors : int;
}

let zero =
  {
    ok = 0;
    found = 0;
    absent = 0;
    deleted = 0;
    missed = 0;
    unsupported = 0;
    counted = 0;
    errors = 0;
  }

let add v (r : Protocol.reply) =
  match r with
  | Ok_ -> { v with ok = v.ok + 1 }
  | Value _ -> { v with found = v.found + 1 }
  | Not_found -> { v with absent = v.absent + 1 }
  | Deleted true -> { v with deleted = v.deleted + 1 }
  | Deleted false -> { v with missed = v.missed + 1 }
  | Unsupported -> { v with unsupported = v.unsupported + 1 }
  | Count_is _ -> { v with counted = v.counted + 1 }
  | Stats_are _ -> v
  | Err _ -> { v with errors = v.errors + 1 }

let sum a b =
  {
    ok = a.ok + b.ok;
    found = a.found + b.found;
    absent = a.absent + b.absent;
    deleted = a.deleted + b.deleted;
    missed = a.missed + b.missed;
    unsupported = a.unsupported + b.unsupported;
    counted = a.counted + b.counted;
    errors = a.errors + b.errors;
  }

let total v =
  v.ok + v.found + v.absent + v.deleted + v.missed + v.unsupported + v.counted
  + v.errors

let pp_verdicts ppf v =
  Fmt.pf ppf "ok=%d found=%d absent=%d deleted=%d missed=%d unsupported=%d counted=%d errors=%d"
    v.ok v.found v.absent v.deleted v.missed v.unsupported v.counted v.errors

(* ------------------------------------------------------------------ *)
(* Socket mode: one connection per worker, synchronous RPC. *)

type socket_result = {
  load_verdicts : verdicts;
  run_verdicts : verdicts;
  load_reqs : int;
  run_reqs : int;
  wall_s : float;
}

(** Drive a server over sockets: each logical worker opens its own
    connection via [connect] and streams its load slice then its run
    slice. Workers run across [pool]; summed verdicts are deterministic
    (disjoint keyspaces), wall time is not. *)
let run_sockets ~(connect : unit -> Listener.Client.t) ~pool ~kind ~records
    ~ops ~workers ~seed ~skip_load () : socket_result =
  let t0 = Unix.gettimeofday () in
  let per_worker =
    Hippo_parallel.Pool.map pool
      (fun worker ->
        let client = connect () in
        Fun.protect
          ~finally:(fun () -> Listener.Client.close client)
          (fun () ->
            let drive seq =
              Seq.fold_left
                (fun (v, n) req ->
                  (add v (Listener.Client.rpc client req), n + 1))
                (zero, 0) seq
            in
            let load =
              if skip_load then (zero, 0)
              else drive (load_requests ~records ~workers ~worker)
            in
            let run =
              drive (run_requests ~kind ~records ~ops ~workers ~worker ~seed)
            in
            (load, run)))
      (List.init workers Fun.id)
  in
  let fold f = List.fold_left f (zero, 0) per_worker in
  let load_verdicts, load_reqs =
    fold (fun (v, n) ((lv, ln), _) -> (sum v lv, n + ln))
  in
  let run_verdicts, run_reqs =
    fold (fun (v, n) (_, (rv, rn)) -> (sum v rv, n + rn))
  in
  {
    load_verdicts;
    run_verdicts;
    load_reqs;
    run_reqs;
    wall_s = Unix.gettimeofday () -. t0;
  }
