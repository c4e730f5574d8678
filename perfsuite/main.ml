(* The performance suite: named workloads, end-to-end metrics measured
   untraced, per-layer metrics from a traced run. See README.md.

     main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
              [--trace-out FILE] [--json FILE] [--smoke]

   With --workload, runs that workload in this process and prints one
   `workload metric value unit` line per metric, then the result as one
   JSON object on the last line. Without it, runs every workload, each
   in a fresh child process. The exit code is non-zero on a bad
   argument, a failed set-up or any failed check. *)

let workloads =
  [ Repair_corpus.workload; Serve_ycsb.a; Serve_ycsb.c; Sim_chaos.workload ]

(* The per-layer metrics BENCHMARK.json declares (the end-to-end ones
   are built in [run_workload]); every traced run prints all of them. A
   span that a workload never enters reports zero calls. *)
let spans =
  [
    "pmir.parse"; "core.repair"; "core.optimize"; "engine.locate";
    "engine.compute"; "engine.reduce"; "engine.hoist"; "engine.apply";
    "engine.verify"; "engine.opt-analyze"; "engine.opt-apply";
    "engine.opt-verify"; "alias.andersen"; "staticcheck.check";
    "pmcheck.create"; "pmcheck.detect"; "ycsb.next"; "serve.encode";
    "serve.handle_wire"; "serve.decode"; "apps.insert"; "apps.read";
    "apps.delete"; "apps.check"; "apps.session"; "apps.reopen";
    "sim.scenario";
  ]

let counts =
  [
    ("engine.bugs", "count"); ("engine.fixes", "count");
    ("engine.reduce_eliminated", "count"); ("engine.hoisted", "count");
    ("engine.clones_created", "count"); ("engine.opt_removed", "count");
    ("pmir.instrs_in", "count"); ("pmir.instrs_out", "count");
    ("pmcheck.steps_per_op", "count"); ("pmcheck.steps_per_s", "1/s");
    ("pmcheck.unpersisted_records", "count"); ("sim.crashes", "count");
    ("sim.recoveries", "count"); ("sim.torn", "count");
    ("sim.reordered", "count"); ("gc.minor_words_per_op", "count");
    ("gc.major_collections", "count"); ("trace.overhead", "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  json : string option;
  smoke : bool;
}

let usage_error fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfsuite: " ^ s);
      exit 2)
    fmt

let parse_args argv =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage_error "%s expects an integer, got %S" flag v
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest ->
        if not (List.exists (fun (x : Workload.t) -> x.name = w) workloads) then
          usage_error "unknown workload %S" w;
        go { a with workload = Some w } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. && Float.is_finite s ->
            go { a with seconds = s } rest
        | _ -> usage_error "--seconds expects a positive number, got %S" v)
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> go { a with trace = false } rest
        | "1" -> go { a with trace = true } rest
        | _ -> usage_error "--trace expects 0 or 1, got %S" v)
    | "--trace-out" :: f :: rest -> go { a with trace_out = Some f } rest
    | "--json" :: f :: rest -> go { a with json = Some f } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | [
        ( "--workload" | "--seed" | "--seconds" | "--trace" | "--trace-out"
        | "--json" ) as flag;
      ] ->
        usage_error "%s expects a value" flag
    | x :: _ -> usage_error "unknown argument %S" x
  in
  go
    {
      workload = None;
      seed = 42;
      seconds = 10.;
      trace = false;
      trace_out = None;
      json = None;
      smoke = false;
    }
    (List.tl (Array.to_list argv))

(* ------------------------------------------------------------------ *)
(* Measuring one workload *)

type block = {
  traced : bool;
  ops : int;
  busy_ns : int;  (** the ns the ops counted toward the rate *)
  latency : float array;  (** the block's latency samples, ns *)
  minor_words : float;
  major : int;
}

let rate b = float_of_int b.ops /. (float_of_int b.busy_ns /. 1e9)

(* Untraced: five equal blocks. Traced: six, alternating traced and
   untraced so that a slow phase of the host hits both sides. A smoke
   run is one block (or one of each) of a fixed number of steps. *)
let run_blocks (inst : Workload.instance) ~seconds ~trace ~smoke_steps =
  let plan =
    match (trace, smoke_steps) with
    | true, None -> [ true; false; true; false; true; false ]
    | false, None -> [ false; false; false; false; false ]
    | true, Some _ -> [ true; false ]
    | false, Some _ -> [ false ]
  in
  let window =
    int_of_float (seconds /. float_of_int (List.length plan) *. 1e9)
  in
  List.map
    (fun traced ->
      let g0 = Gc.quick_stat () in
      let ops0 = inst.Workload.ops () in
      let lat0 = Workload.Samples.length inst.latency in
      Span.set_on traced;
      let deadline = Span.now_ns () + window in
      let steps = ref 0 and busy = ref 0 in
      let more () =
        match smoke_steps with
        | Some n -> !steps < n
        | None -> Span.now_ns () < deadline
      in
      while more () do
        busy := !busy + inst.step ();
        incr steps
      done;
      Span.set_on false;
      let g1 = Gc.quick_stat () in
      let lat1 = Workload.Samples.length inst.latency in
      {
        traced;
        ops = inst.ops () - ops0;
        busy_ns = !busy;
        latency =
          Workload.Samples.sub inst.latency ~pos:lat0 ~len:(lat1 - lat0);
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major = g1.Gc.major_collections - g0.Gc.major_collections;
      })
    plan

(* The best block stands for the program's own speed: on a shared host
   noise only ever slows a block down, and runs swing by a tenth with
   the neighbours' load (README.md, "Noise"). *)
let best_rate blocks =
  List.fold_left (fun m b -> Float.max m (rate b)) 0. blocks

let best_p50 blocks =
  List.fold_left
    (fun m b ->
      if b.latency = [||] then m else Float.min m (Metric.median b.latency))
    infinity blocks

exception Failed of string

let run_workload (w : Workload.t) (a : args) =
  Span.start ~store:(a.trace_out <> None);
  (* set up several times and report the median: work moved into
     set-up shows in setup_s *)
  let setups = if a.smoke then 1 else 3 in
  let rec set_up k times =
    let t0 = Span.now_ns () in
    let inst = w.setup ~seed:a.seed ~smoke:a.smoke in
    let times = (float_of_int (Span.now_ns () - t0) /. 1e9) :: times in
    if k = 1 then (inst, times)
    else begin
      Gc.compact ();
      set_up (k - 1) times
    end
  in
  let inst, setup_times = set_up setups [] in
  let blocks =
    run_blocks inst ~seconds:a.seconds ~trace:a.trace
      ~smoke_steps:(if a.smoke then Some w.smoke_steps else None)
  in
  if a.trace then begin
    Span.set_on true;
    inst.probe ();
    Span.set_on false
  end;
  let o = inst.finish () in
  let plain = List.filter (fun b -> not b.traced) blocks in
  let traced = List.filter (fun b -> b.traced) blocks in
  let row metric unit_ kind value =
    { Metric.workload = w.name; metric; unit_; kind; value }
  in
  let contract, extra =
    if not a.trace then begin
      let pooled = Array.concat (List.map (fun b -> b.latency) plain) in
      ( [
          row "setup_s" "s" Metric.Wall
            (Metric.median (Array.of_list setup_times));
          row "ops_per_s" "ops/s" Metric.Wall (best_rate plain);
          row "latency_p50_us" "us" Metric.Wall (best_p50 plain /. 1e3);
          row "peak_rss_mb" "MB" Metric.Wall (Metric.peak_rss_mb ());
          row "sim_ns_per_op" "sim_ns" Metric.Sim o.sim_ns_per_op;
        ],
        row "latency_tail_us" "us" Metric.Wall
          (Metric.percentile pooled o.tail_q /. 1e3)
        :: row "latency_tail_q" "quantile" Metric.Count o.tail_q
        :: row "latency_samples" "count" Metric.Count
             (float_of_int (Array.length pooled))
        :: row "error_rate" "failed/attempted" Metric.Count
             (float_of_int o.failed /. float_of_int (max 1 o.attempted))
        :: List.map (fun (m, u, k, x) -> row m u k x) o.extra )
    end
    else begin
      let root = float_of_int (max 1 (Span.root_ns ())) in
      let stats = List.map (fun s -> (s, Span.stats (Span.name s))) spans in
      let span_rows =
        List.concat_map
          (fun (s, (st : Span.stats)) ->
            [
              row (s ^ ".calls") "count" Metric.Count (float_of_int st.calls);
              row (s ^ ".self_pct") "%" Metric.Wall
                (100. *. float_of_int st.self_ns /. root);
            ])
          stats
      in
      let plain_ops = List.fold_left (fun n b -> n + b.ops) 0 plain in
      let derived =
        [
          ( "gc.minor_words_per_op",
            List.fold_left (fun s b -> s +. b.minor_words) 0. plain
            /. float_of_int (max 1 plain_ops) );
          ( "gc.major_collections",
            float_of_int (List.fold_left (fun s b -> s + b.major) 0 plain) );
          ("trace.overhead", best_rate traced /. best_rate plain);
        ]
      in
      List.iter
        (fun (m, _) ->
          if not (List.mem_assoc m counts) then
            invalid_arg ("undeclared count " ^ m))
        o.counts;
      let count_rows =
        List.map
          (fun (m, u) ->
            let v =
              Option.value ~default:0.
                (List.assoc_opt m (o.counts @ derived))
            in
            let kind =
              if m = "trace.overhead" then Metric.Wall else Metric.Count
            in
            row m u kind v)
          counts
      in
      (* the per-call detail of every span the run entered *)
      let per_call =
        List.concat_map
          (fun (s, (st : Span.stats)) ->
            if st.calls = 0 then []
            else
              let d = Array.map float_of_int st.durs_ns in
              [
                row (s ^ ".self_s") "s" Metric.Wall
                  (float_of_int st.self_ns /. 1e9);
                row (s ^ ".p50_us") "us" Metric.Wall (Metric.median d /. 1e3);
                row (s ^ ".p99_us") "us" Metric.Wall
                  (Metric.percentile d 0.99 /. 1e3);
              ])
          stats
      in
      (span_rows @ count_rows, per_call)
    end
  in
  (match a.trace_out with
  | Some path ->
      let written, dropped = Span.write_jsonl path ~label:w.label in
      Printf.eprintf
        "%s: %d spans written to %s (%d past the cap not stored)\n%!" w.name
        written path dropped
  | None -> ());
  let rows = contract @ extra in
  List.iter
    (fun (r : Metric.row) ->
      if not (Float.is_finite r.value) then
        raise (Failed (Printf.sprintf "metric %s is not finite" r.metric)))
    rows;
  List.iter (fun r -> print_endline (Metric.text_line r)) rows;
  (match a.json with
  | Some path ->
      let oc = open_out path in
      List.iter
        (fun r ->
          output_string oc (Metric.json_row ~e2e:(not a.trace) r);
          output_char oc '\n')
        rows;
      close_out oc
  | None -> ());
  let correct = o.failed = 0 && o.checks_ok && o.attempted > 0 in
  if not o.checks_ok then
    Printf.eprintf "%s: a run-level check failed\n%!" w.name;
  if o.failed > 0 then
    Printf.eprintf "%s: %d of %d ops failed their check\n%!" w.name o.failed
      o.attempted;
  print_endline
    (Metric.result_line ~correct ~attempted:o.attempted ~failed:o.failed
       contract);
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* The suite: every workload in its own child process *)

let run_suite (a : args) argv =
  let part path (w : Workload.t) = path ^ "." ^ w.name in
  let child_args (w : Workload.t) =
    let rec strip = function
      | ("--json" | "--trace-out") :: _ :: rest -> strip rest
      | x :: rest -> x :: strip rest
      | [] -> []
    in
    Array.of_list
      ((Sys.executable_name :: strip (List.tl (Array.to_list argv)))
      @ [ "--workload"; w.name ]
      @ (match a.json with Some p -> [ "--json"; part p w ] | None -> [])
      @
      match a.trace_out with
      | Some p -> [ "--trace-out"; part p w ]
      | None -> [])
  in
  let failed =
    List.filter
      (fun (w : Workload.t) ->
        let pid =
          Unix.create_process Sys.executable_name (child_args w) Unix.stdin
            Unix.stdout Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> false
        | _ -> true)
      workloads
  in
  (match a.json with
  | Some path ->
      let oc = open_out path in
      List.iter
        (fun w ->
          let p = part path w in
          if Sys.file_exists p then begin
            let ic = open_in_bin p in
            output_string oc (really_input_string ic (in_channel_length ic));
            close_in ic;
            Sys.remove p
          end)
        workloads;
      close_out oc
  | None -> ());
  List.iter
    (fun (w : Workload.t) -> Printf.eprintf "perfsuite: %s FAILED\n%!" w.name)
    failed;
  if failed = [] then 0 else 1

let () =
  let a = parse_args Sys.argv in
  let code =
    match a.workload with
    | None -> run_suite a Sys.argv
    | Some name -> (
        let w = List.find (fun (w : Workload.t) -> w.name = name) workloads in
        try run_workload w a with
        | Workload.Setup_failed msg ->
            Printf.eprintf "perfsuite: %s set-up failed: %s\n%!" name msg;
            1
        | Failed msg ->
            Printf.eprintf "perfsuite: %s: %s\n%!" name msg;
            1)
  in
  exit code
