(** The in-process driver: the full serve pipeline — load generator,
    codec, handler, metrics — minus the sockets, for CI and benches.

    Dispatch is a deterministic round-robin: in every round each worker
    contributes its next encoded request frame in worker order (frames
    are generated in batches across the [--jobs] pool, which is pure
    per-worker work collected in submission order, so physical
    parallelism never reorders dispatch). Each frame goes through
    {!Handler.handle_wire} — decode, handle, encode — so the in-process
    path exercises exactly the codec the network listener does.

    Everything in an {!outcome} except the wall-clock fields is a pure
    function of (app, variant, workload, records, ops, workers, seed):
    byte-identical at any [--jobs] width. *)

open Hippo_apps
module Hist = Hippo_perfmodel.Stats.Hist

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

(** Size the interpreter for a service holding [final_records] entries:
    trace off (a million-op trace would be gigabytes), effectively
    unlimited fuel, the default cost model (simulated-latency
    histograms), and a PM arena sized to the record count. The size only
    bounds addresses: PM is paged, so memory follows the pages the
    records touch. *)
let serve_config ~final_records () : Hippo_pmcheck.Interp.config =
  let pm_size =
    pow2_at_least
      ((final_records * 256) + (1 lsl 22))
      (1 lsl 24)
  in
  {
    Hippo_pmcheck.Interp.default_config with
    trace = false;
    fuel = max_int;
    cost = Some Hippo_pmcheck.Cost.default;
    pm_size;
  }

let serve_nbuckets ~final_records = pow2_at_least (max 1024 (final_records / 2)) 1024

type outcome = {
  app_name : string;
  workers : int;
  records : int;  (** loaded records, all workers *)
  final_records : int;  (** records after the run's inserts *)
  load_reqs : int;
  run_reqs : int;
  load_verdicts : Loadgen.verdicts;
  run_verdicts : Loadgen.verdicts;
  hist : Hist.t;  (** simulated-ns latency of every dispatched op *)
  sim_load_ns : float;
  sim_run_ns : float;
  wall_load_s : float;  (** wall clock; NOT deterministic *)
  wall_run_s : float;
  count : int;
  check : bool;
  digest : int;  (** FNV over the full final store contents *)
}

(* ------------------------------------------------------------------ *)

let batch = 2048

(* Pull up to [n] elements; returns them (encoded) plus the new tail. *)
let take_frames n seq =
  let acc = ref [] in
  let rec go i seq =
    if i >= n then seq
    else
      match seq () with
      | Seq.Nil -> Seq.empty
      | Seq.Cons (req, tail) ->
          acc := Protocol.encode_request req :: !acc;
          go (i + 1) tail
  in
  let tail = go 0 seq in
  (Array.of_list (List.rev !acc), tail)

exception Wire of string

(* Round-robin dispatch of every request of every worker through the
   wire handler; returns (summed verdicts, request count). *)
let dispatch ~pool ~app ~metrics (seqs : Protocol.request Seq.t array) =
  let verdicts = ref Loadgen.zero in
  let nreqs = ref 0 in
  let tally frame =
    let reply_frame = Handler.handle_wire ~app ~metrics frame in
    match Protocol.decode_reply reply_frame ~pos:0 with
    | Ok (reply, _) ->
        verdicts := Loadgen.add !verdicts reply;
        incr nreqs
    | Error e -> raise (Wire (Fmt.str "%a" Protocol.pp_error e))
  in
  let tails = ref (Array.to_list seqs) in
  let exhausted = ref false in
  while not !exhausted do
    let chunks =
      Hippo_parallel.Pool.map pool (take_frames batch) !tails
    in
    let longest =
      List.fold_left (fun m (fs, _) -> max m (Array.length fs)) 0 chunks
    in
    if longest = 0 then exhausted := true
    else begin
      let arrays = List.map fst chunks in
      for j = 0 to longest - 1 do
        List.iter
          (fun frames -> if j < Array.length frames then tally frames.(j))
          arrays
      done;
      tails := List.map snd chunks
    end
  done;
  (!verdicts, !nreqs)

(* FNV-1a fold over the full final store contents: every key in every
   worker's final range, tagged found/absent, with its value bytes. *)
let digest_store ~(app : App.t) ~workers ~finals =
  let h = ref 0x1505 in
  let mix s =
    String.iter
      (fun c ->
        h := (!h lxor Char.code c) * 0x01000193;
        h := !h land 0x3FFFFFFFFFFFFFF)
      s
  in
  for worker = 0 to workers - 1 do
    for k = 0 to finals.(worker) - 1 do
      let key = Loadgen.key_string ~workers ~worker k in
      mix key;
      match app.App.read ~key with
      | App.Found v ->
          mix "=";
          mix v
      | App.Absent -> mix "!"
    done
  done;
  !h

(** Run the whole pipeline in-process. Returns [Error] when the app or
    variant cannot be built (e.g. pclht has no flush-free build, or
    repair verification fails). *)
let run_inproc ~pool ~app:kind ~variant ~workload ~records ~ops ~workers ~seed
    () : (outcome, string) result =
  let finals =
    Array.init workers (fun worker ->
        Loadgen.final_records ~kind:workload ~records ~ops ~workers ~worker
          ~seed)
  in
  let final_total = Array.fold_left ( + ) 0 finals in
  let config = serve_config ~final_records:final_total () in
  let nbuckets = serve_nbuckets ~final_records:final_total in
  match App.make ~config ~nbuckets kind variant with
  | Error _ as e -> e
  | Ok app ->
      let metrics = Metrics.create () in
      let load_seqs =
        Array.init workers (fun worker ->
            Loadgen.load_requests ~records ~workers ~worker)
      in
      let t0 = Unix.gettimeofday () in
      let ns0 = app.App.cost_ns () in
      let load_verdicts, load_reqs =
        dispatch ~pool ~app ~metrics load_seqs
      in
      let t1 = Unix.gettimeofday () in
      let ns1 = app.App.cost_ns () in
      let run_seqs =
        Array.init workers (fun worker ->
            Loadgen.run_requests ~kind:workload ~records ~ops ~workers ~worker
              ~seed)
      in
      let run_verdicts, run_reqs = dispatch ~pool ~app ~metrics run_seqs in
      let t2 = Unix.gettimeofday () in
      let ns2 = app.App.cost_ns () in
      let stats = Metrics.snapshot metrics in
      let count = app.App.count () in
      let check = app.App.check () in
      let digest = digest_store ~app ~workers ~finals in
      Ok
        {
          app_name = app.App.name;
          workers;
          records;
          final_records = final_total;
          load_reqs;
          run_reqs;
          load_verdicts;
          run_verdicts;
          hist = stats.Protocol.hist;
          sim_load_ns = ns1 -. ns0;
          sim_run_ns = ns2 -. ns1;
          wall_load_s = t1 -. t0;
          wall_run_s = t2 -. t1;
          count;
          check;
          digest;
        }

(** The deterministic fields two variants must agree on for the service
    to be behaviorally identical: every reply verdict, the final record
    count, and the full store digest. *)
let agrees a b =
  a.load_verdicts = b.load_verdicts
  && a.run_verdicts = b.run_verdicts
  && a.count = b.count
  && a.digest = b.digest

(** Deterministic rendering (no wall-clock fields): the smoke output. *)
let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>%s: workers=%d records=%d final=%d@,\
     load: %d reqs (%a)@,\
     run: %d reqs (%a)@,\
     latency: %a@,\
     count=%d check=%b digest=%014x@]"
    o.app_name o.workers o.records o.final_records o.load_reqs
    Loadgen.pp_verdicts o.load_verdicts o.run_reqs Loadgen.pp_verdicts
    o.run_verdicts Hist.pp o.hist o.count o.check o.digest
