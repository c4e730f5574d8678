(* serve-ycsb-a / serve-ycsb-c: YCSB traffic against the build
   Hippocrates emits for Redis (flush-free input, repaired, then
   optimized), served in process. Four logical workers take turns in a
   closed loop with one request outstanding; every request goes
   encode -> Handler.handle_wire -> decode, the server path minus the
   socket. A reply that differs from a host-side shadow of the store is a
   failed request. Workload A sends half its requests down the write
   path (stores, flushes, fences); workload C only reads, so it bypasses
   flush, fence and the optimizer's deletions. *)

open Hippo_pmcheck
open Hippo_core
open Hippo_apps
module Protocol = Hippo_serve.Protocol
module Loadgen = Hippo_serve.Loadgen
module Metrics = Hippo_serve.Metrics
module Drive = Hippo_serve.Drive
module Hist = Hippo_perfmodel.Stats.Hist
module Optimize = Hippo_engine.Optimize

let workers = 4

let sp_next = Span.name "ycsb.next"
let sp_encode = Span.name "serve.encode"
let sp_handle = Span.name "serve.handle_wire"
let sp_decode = Span.name "serve.decode"
let sp_insert = Span.name "apps.insert"
let sp_read = Span.name "apps.read"

(* The served build, repaired and optimized as `App.program Redis
   Optimized` does it, with every verdict checked. *)
let build () =
  let input = Redis_mini.build Redis_mini.Flush_free in
  let r =
    Driver.repair ~name:"redis-serve" ~workload:Redis_bench.repair_workload
      input
  in
  if
    not
      (Verify.effective r.Driver.verification
      && Verify.harm_free r.Driver.verification)
  then Workload.setup_failed "redis repair failed verification";
  let o =
    (Driver.optimize ~name:"redis-optimize" r.Driver.repaired).Driver.t_outcome
  in
  if not o.Optimize.o_report_equal || o.Optimize.o_reverted then
    Workload.setup_failed "redis optimizer changed the static reports";
  (r, o)

(* The adapter with each call into the app layer recorded as a span. *)
let traced (a : App.t) =
  {
    a with
    App.insert =
      (fun ~key ~value ->
        Span.span sp_insert (fun () -> a.App.insert ~key ~value));
    read = (fun ~key -> Span.span sp_read (fun () -> a.App.read ~key));
  }

let setup ~kind ~seed ~smoke : Workload.instance =
  let records = if smoke then 1_000 else 100_000 in
  let r, o = build () in
  let prog = o.Optimize.o_prog in
  let config = Drive.serve_config ~final_records:records () in
  let app =
    traced
      (App.wrap ~config
         ~nbuckets:(Drive.serve_nbuckets ~final_records:records)
         App.Redis App.Optimized prog)
  in
  let metrics = ref (Metrics.create ()) in
  let shadow = Hashtbl.create records in
  (* One request, closed loop; returns whether the reply matches the
     shadow. *)
  let request ~id (req : Protocol.request) =
    let frame =
      Span.span sp_encode ~id (fun () -> Protocol.encode_request req)
    in
    let reply_frame =
      Span.span sp_handle ~id (fun () ->
          Hippo_serve.Handler.handle_wire ~app ~metrics:!metrics frame)
    in
    let reply =
      Span.span sp_decode ~id (fun () ->
          Protocol.decode_reply reply_frame ~pos:0)
    in
    match (req, reply) with
    | Set { key; value }, Ok (Ok_, _) ->
        Hashtbl.replace shadow key value;
        true
    | Get { key }, Ok (Value v, _) -> Hashtbl.find_opt shadow key = Some v
    | Get { key }, Ok (Not_found, _) -> not (Hashtbl.mem shadow key)
    | _ -> false
  in
  (* load phase: every record, the workers' slices interleaved *)
  let loads =
    Array.init workers (fun worker ->
        Loadgen.load_requests ~records ~workers ~worker)
  in
  let live = ref true in
  while !live do
    live := false;
    Array.iteri
      (fun w s ->
        match s () with
        | Seq.Nil -> ()
        | Seq.Cons (req, rest) ->
            live := true;
            loads.(w) <- rest;
            if not (request ~id:(-1) req) then
              Workload.setup_failed "load request rejected")
      loads
  done;
  (* the run phase's streams are bounded only by the run's length *)
  let streams =
    Array.init workers (fun worker ->
        Loadgen.run_requests ~kind ~records ~ops:max_int ~workers ~worker ~seed)
  in
  let ordinal = ref 0 in
  let next () =
    let w = !ordinal mod workers in
    match streams.(w) () with
    | Seq.Cons (req, rest) ->
        streams.(w) <- rest;
        req
    | Seq.Nil -> failwith "ycsb stream ended"
  in
  let attempted = ref 0 and failed = ref 0 and busy = ref 0 in
  let latency = Workload.Samples.create () in
  let step () =
    let t0 = Span.now_ns () in
    let id = !ordinal in
    let req = Span.span sp_next ~id next in
    let t1 = Span.now_ns () in
    let ok = request ~id req in
    let t2 = Span.now_ns () in
    incr ordinal;
    incr attempted;
    if not ok then incr failed;
    if not (Span.is_on ()) then
      Workload.Samples.add latency (float_of_int (t2 - t1));
    busy := !busy + (t2 - t0);
    t2 - t0
  in
  (* warm-up, then the measured phase starts from fresh counters *)
  for _ = 1 to (if smoke then 200 else 20_000) do
    ignore (step ())
  done;
  if !failed > 0 then Workload.setup_failed "warm-up request rejected";
  attempted := 0;
  busy := 0;
  Workload.Samples.clear latency;
  metrics := Metrics.create ();
  let ns0 = app.App.cost_ns () and steps0 = Interp.steps app.App.interp in
  let finish () : Workload.outcome =
    let n = float_of_int !attempted in
    let steps = float_of_int (Interp.steps app.App.interp - steps0) in
    let hist = (Metrics.snapshot !metrics).Protocol.hist in
    let sim_ns = (app.App.cost_ns () -. ns0) /. n in
    let count_ok = app.App.count () = Hashtbl.length shadow in
    {
      attempted = !attempted;
      failed = !failed;
      checks_ok = app.App.check () && count_ok;
      tail_q = 0.999;
      sim_ns_per_op = sim_ns;
      counts =
        [
          ("pmcheck.steps_per_op", steps /. n);
          ("pmcheck.steps_per_s", steps /. (float_of_int !busy /. 1e9));
          ( "pmcheck.unpersisted_records",
            float_of_int
              (Pstate.unpersisted_count (Interp.pstate app.App.interp)) );
        ]
        @ Repair_corpus.fix_counts [ (r, o) ];
      extra =
        [
          ("sim_kops", "kops", Metric.Sim, 1e6 /. sim_ns);
          ("sim_p99_ns", "sim_ns", Metric.Sim, Hist.p99 hist);
        ];
    }
  in
  {
    Workload.step;
    ops = (fun () -> !attempted);
    latency;
    probe = ignore;
    finish;
  }

let workload name kind =
  {
    Workload.name;
    setup = setup ~kind;
    smoke_steps = (if kind = Hippo_ycsb.Workload.C then 30_000 else 20_000);
    label = string_of_int;
  }

let a = workload "serve-ycsb-a" Hippo_ycsb.Workload.A
let c = workload "serve-ycsb-c" Hippo_ycsb.Workload.C
