(* sim-chaos: a fleet of simulated lifetimes of hand-hardened Redis in
   chaos mode (crashes, torn lines, reordered drains, re-crash chains).
   It is the suite's only path through crash capture, App.reopen (a
   fresh machine over the crash image) and the shadow audit. Manual
   Redis is used because it is the variant with a zero-violation
   reference: the repaired and optimized builds fail the recovery
   check. A scenario with any audit violation is a failed op. *)

open Hippo_pmcheck
open Hippo_apps
module Harness = Hippo_sim.Harness
module Scenario = Hippo_sim.Scenario

let sp_scenario = Span.name "sim.scenario"
let sp_session = Span.name "apps.session"
let sp_reopen = Span.name "apps.reopen"
let sp_check = Span.name "apps.check"
let sp_delete = Span.name "apps.delete"
let sp_insert = Span.name "apps.insert"
let sp_read = Span.name "apps.read"

(* Scenarios whose digests the fleet harness must reproduce. *)
let digest_prefix = 2

let config ~seed =
  {
    Harness.default_config with
    Harness.kind = App.Redis;
    variant = App.Manual;
    mode = Harness.Chaos;
    seed;
    ops = 120;
    keyspace = 32;
    nbuckets = 16;
    jobs = 1;
    differential = false;
  }

let setup ~seed ~smoke : Workload.instance =
  let cfg = config ~seed in
  let prog =
    match App.program App.Redis App.Manual with
    | Ok p -> p
    | Error e -> Workload.setup_failed "redis/manual: %s" e
  in
  let icfg = Harness.interp_config cfg and scfg = Harness.scenario_config cfg in
  let latency = Workload.Samples.create () in
  (* machine steps of sessions already replaced by a restart *)
  let closed_steps = ref 0 in
  let live = ref None in
  (* Every adapter call into the app layer as a span; reopen, the
     restart, is also timed untraced as the op's latency. *)
  let rec wrap (a : App.t) =
    live := Some a;
    {
      a with
      App.insert =
        (fun ~key ~value ->
          Span.span sp_insert (fun () -> a.App.insert ~key ~value));
      read = (fun ~key -> Span.span sp_read (fun () -> a.App.read ~key));
      delete = (fun ~key -> Span.span sp_delete (fun () -> a.App.delete ~key));
      check = (fun () -> Span.span sp_check a.App.check);
      reopen =
        (fun ~pm_image ->
          closed_steps := !closed_steps + Interp.steps a.App.interp;
          let t0 = Span.now_ns () in
          let r = Span.span sp_reopen (fun () -> a.App.reopen ~pm_image) in
          if not (Span.is_on ()) then
            Workload.Samples.add latency (float_of_int (Span.now_ns () - t0));
          Result.map wrap r);
    }
  in
  let make_app () =
    Ok
      (Span.span sp_session (fun () ->
           wrap
             (App.wrap ~config:icfg ~nbuckets:cfg.Harness.nbuckets App.Redis
                App.Manual prog)))
  in
  let play ~seed index =
    match
      Span.span sp_scenario ~id:index (fun () ->
          Scenario.run ~seed ~index scfg ~make_app ())
    with
    | Ok o -> o
    | Error e -> failwith ("sim scenario: " ^ e)
  in
  (* warm-up: scenarios of a fixed seed, so set-up does the same work
     whatever the run's seed *)
  for index = 0 to (if smoke then 0 else 1) do
    if (play ~seed:0 index).Scenario.violations <> [] then
      Workload.setup_failed "warm-up scenario %d has violations" index
  done;
  Workload.Samples.clear latency;
  closed_steps := 0;
  let next = ref 0 and failed = ref 0 in
  let digests = ref [] in
  let crashes = ref 0 and recoveries = ref 0 in
  let torn = ref 0 and reordered = ref 0 in
  let machine_ns = ref 0. and busy = ref 0 in
  let step () =
    let index = !next in
    incr next;
    let t0 = Span.now_ns () in
    let o = play ~seed index in
    let dt = Span.now_ns () - t0 in
    (match !live with
    | Some a -> closed_steps := !closed_steps + Interp.steps a.App.interp
    | None -> ());
    if o.Scenario.violations <> [] then incr failed;
    if index < digest_prefix then digests := o.Scenario.digest :: !digests;
    crashes := !crashes + o.Scenario.crashes;
    recoveries := !recoveries + o.Scenario.recoveries;
    torn := !torn + o.Scenario.torn;
    reordered := !reordered + o.Scenario.reordered;
    busy := !busy + dt;
    (* the machines' own simulated cost: the scenario clock less the
       fixed penalty it charges per restart *)
    machine_ns :=
      !machine_ns +. o.Scenario.clock_ns
      -. (float_of_int o.Scenario.crashes *. scfg.Scenario.recovery_ns);
    dt
  in
  let finish () : Workload.outcome =
    let n = !next in
    (* the traced loop must reproduce the fleet harness on its prefix *)
    let k = min n digest_prefix in
    let harness_ok =
      match Harness.run { cfg with Harness.scenarios = k } with
      | Ok r ->
          r.Harness.digest
          = Digest.to_hex
              (Digest.string (String.concat "" (List.rev !digests)))
      | Error _ -> false
    in
    let f = float_of_int in
    let unpersisted =
      match !live with
      | Some a -> Pstate.unpersisted_count (Interp.pstate a.App.interp)
      | None -> 0
    in
    {
      attempted = n;
      failed = !failed;
      checks_ok = harness_ok && !crashes > 0;
      tail_q = 0.95;
      sim_ns_per_op = !machine_ns /. f !recoveries;
      counts =
        [
          ("pmir.instrs_in", f (Hippo_pmir.Program.size prog));
          ("pmir.instrs_out", f (Hippo_pmir.Program.size prog));
          ("pmcheck.steps_per_op", f !closed_steps /. f !recoveries);
          ("pmcheck.steps_per_s", f !closed_steps /. (f !busy /. 1e9));
          ("pmcheck.unpersisted_records", f unpersisted);
          ("sim.crashes", f !crashes);
          ("sim.recoveries", f !recoveries);
          ("sim.torn", f !torn);
          ("sim.reordered", f !reordered);
        ];
      extra =
        [ ("scenarios_per_s", "1/s", Metric.Wall, f n /. (f !busy /. 1e9)) ];
    }
  in
  {
    Workload.step;
    ops = (fun () -> !recoveries);
    latency;
    probe = ignore;
    finish;
  }

let workload =
  { Workload.name = "sim-chaos"; setup; smoke_steps = 1; label = string_of_int }
