(** The scenario fleet: build the app programs once, fan independent
    scenarios out over a domain pool, and fold their outcomes into one
    report whose digest is byte-identical at every [--jobs] width.

    Modes are TigerBeetle-style presets over {!Faults.rates}: [Quick] is
    fault-free shadow checking, [Standard] adds crashes and recovery
    chains at the deterministic-pessimistic image, [Chaos] adds torn
    cache lines and reordered write-back drain on top.

    When the target variant is [Repaired] the harness also opens the
    repair-input baseline (Redis: flush-free; P-CLHT: the buggy manual
    build) per scenario and drives it through the byte-identical op and
    fault schedule — a lockstep do-no-harm reading: the repaired app
    must be clean exactly where the unrepaired input loses data. *)

open Hippo_pmcheck
open Hippo_apps
module Pool = Hippo_parallel.Pool

type mode = Quick | Standard | Chaos

let mode_to_string = function
  | Quick -> "quick"
  | Standard -> "standard"
  | Chaos -> "chaos"

let rates_of_mode = function
  | Quick -> Faults.none
  | Standard -> Faults.standard
  | Chaos -> Faults.chaos

type config = {
  kind : App.kind;
  variant : App.variant;
  mode : mode;
  seed : int;
  scenarios : int;
  ops : int;  (** per scenario *)
  keyspace : int;
  nbuckets : int;  (** small tables force overflow chains *)
  jobs : int;
  differential : bool;
      (** drive the repair-input baseline in lockstep (Repaired only) *)
}

let default_config =
  {
    kind = App.Pclht;
    variant = App.Repaired;
    mode = Standard;
    seed = 1;
    scenarios = 16;
    ops = Scenario.default.Scenario.ops;
    keyspace = Scenario.default.Scenario.keyspace;
    nbuckets = 16;
    jobs = 1;
    differential = true;
  }

type report = {
  config : config;
  digest : string;  (** MD5 over scenario digests, in scenario order *)
  outcomes : Scenario.outcome list;
  crashes : int;
  recoveries : int;
  reordered : int;
  torn : int;
  clock_ns : float;  (** total virtual time across scenarios *)
  violations : Scenario.violation list;  (** (scenario, violation) flat *)
  violating : int list;  (** scenario indices with target violations *)
  baseline_violating : int list;
}

let interp_config (_ : config) =
  {
    Interp.default_config with
    Interp.trace = false;
    fuel = max_int;
    cost = Some Cost.default;
  }

(* The repair-input program: what [variant = Repaired] was repaired
   from. Its violations under the same schedule are the "before"
   picture of do-no-harm. *)
let baseline_variant = function
  | App.Redis -> App.Flush_free
  | App.Pclht -> App.Manual

let scenario_config cfg =
  {
    Scenario.default with
    Scenario.ops = cfg.ops;
    keyspace = cfg.keyspace;
    rates = rates_of_mode cfg.mode;
  }

(* A fresh session of [prog]. Set-up runs the program (table
   initialization), and a trap there — a table too large for the pool,
   say — is a configuration error, not a scenario verdict. *)
let open_session ~config ~nbuckets kind variant prog () =
  let fail m =
    Error
      (Printf.sprintf "%s/%s: session set-up: %s" (App.kind_to_string kind)
         (App.variant_to_string variant) m)
  in
  try Ok (App.wrap ~config ~nbuckets kind variant prog) with
  | Mem.Trap m -> fail m
  | Machine.Aborted -> fail "abort"
  | Machine.Out_of_fuel -> fail "out of fuel"

(** [run cfg] plays [cfg.scenarios] scenarios over a [cfg.jobs]-wide
    pool. Program construction (including the repair pipeline for
    [Repaired]) happens once, up front; a session whose set-up traps is
    an [Error]. *)
let run cfg : (report, string) result =
  match App.program cfg.kind cfg.variant with
  | Error e -> Error e
  | Ok prog ->
      let baseline_prog =
        if cfg.differential && cfg.variant = App.Repaired then
          match App.program cfg.kind (baseline_variant cfg.kind) with
          | Ok p -> Some p
          | Error _ -> None
        else None
      in
      let session =
        open_session ~config:(interp_config cfg) ~nbuckets:cfg.nbuckets
          cfg.kind
      in
      let make_app = session cfg.variant prog in
      let make_baseline =
        Option.map (session (baseline_variant cfg.kind)) baseline_prog
      in
      let scfg = scenario_config cfg in
      let results =
        Pool.run ~domains:cfg.jobs (fun pool ->
            Pool.map pool
              (fun index ->
                Scenario.run ~seed:cfg.seed ~index scfg ~make_app
                  ?make_baseline ())
              (List.init cfg.scenarios Fun.id))
      in
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | Ok o :: rest -> collect (o :: acc) rest
        | Error e :: _ -> Error e
      in
      (match collect [] results with
      | Error e -> Error e
      | Ok outcomes ->
          let sum f = List.fold_left (fun a o -> a + f o) 0 outcomes in
          let sumf f = List.fold_left (fun a o -> a +. f o) 0. outcomes in
          Ok
            {
              config = cfg;
              digest =
                Digest.to_hex
                  (Digest.string
                     (String.concat ""
                        (List.map (fun o -> o.Scenario.digest) outcomes)));
              outcomes;
              crashes = sum (fun o -> o.Scenario.crashes);
              recoveries = sum (fun o -> o.Scenario.recoveries);
              reordered = sum (fun o -> o.Scenario.reordered);
              torn = sum (fun o -> o.Scenario.torn);
              clock_ns = sumf (fun o -> o.Scenario.clock_ns);
              violations =
                List.concat_map (fun o -> o.Scenario.violations) outcomes;
              violating =
                List.filter_map
                  (fun o ->
                    if o.Scenario.violations <> [] then
                      Some o.Scenario.index
                    else None)
                  outcomes;
              baseline_violating =
                List.filter_map
                  (fun o ->
                    if o.Scenario.baseline_violations <> [] then
                      Some o.Scenario.index
                    else None)
                  outcomes;
            })

(* ------------------------------------------------------------------ *)
(* Reproducers *)

(** The seed-stamped one-liner that replays a report's configuration
    serially (the canonical reproduction recipe). *)
let replay_cmdline cfg =
  Printf.sprintf
    "hippocrates sim --app %s --variant %s --mode %s --seed %d --scenarios \
     %d --ops %d --keyspace %d --nbuckets %d --jobs 1"
    (App.kind_to_string cfg.kind)
    (App.variant_to_string cfg.variant)
    (mode_to_string cfg.mode)
    cfg.seed cfg.scenarios cfg.ops cfg.keyspace cfg.nbuckets

let reproducer_text cfg (o : Scenario.outcome) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "# sim reproducer: scenario %d of seed %d\n" o.index
    cfg.seed;
  Printf.bprintf b "# replay: %s\n\n" (replay_cmdline cfg);
  List.iter
    (fun (v : Scenario.violation) ->
      Printf.bprintf b "violation step=%d %s: %s\n" v.step v.kind v.detail)
    o.Scenario.violations;
  Printf.bprintf b "\n--- transcript ---\n%s" o.Scenario.transcript;
  Buffer.contents b

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(** Write one reproducer file per violating scenario; returns the paths
    (scenario order). *)
let save_reproducers ~dir cfg report =
  let violating =
    List.filter
      (fun o -> o.Scenario.violations <> [])
      report.outcomes
  in
  if violating = [] then []
  else begin
    ensure_dir dir;
    List.map
      (fun (o : Scenario.outcome) ->
        let path =
          Filename.concat dir
            (Printf.sprintf "sim-seed%d-s%03d.txt" cfg.seed o.index)
        in
        let oc = open_out path in
        output_string oc (reproducer_text cfg o);
        close_out oc;
        path)
      violating
  end
