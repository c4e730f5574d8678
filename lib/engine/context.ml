(* The shared pass context: one mutable record threaded through the
   engine's pass list. Each pass reads the fields earlier passes filled
   in and writes its own; the driver wrappers assemble their public
   result records from the final state. *)

open Hippo_pmcheck

type oracle_choice = Full_aa | Trace_aa

type options = {
  oracle : oracle_choice;
  hoisting : bool;  (** Phase 3 on/off (off = the H-intra configuration) *)
  reduction : bool;  (** Phase 2 on/off (ablation A2) *)
  clone_reuse : bool;  (** share persistent subprograms (ablation A1) *)
  style : Apply.style;  (** raw clwb/sfence vs portable libpmem calls *)
  jobs : int;
      (** domain budget for parallel passes (verify); 1 = fully serial,
          byte-identical to the historical single-domain pipeline *)
}

let default_options =
  {
    oracle = Full_aa;
    hoisting = true;
    reduction = true;
    clone_reuse = true;
    style = Apply.Direct;
    jobs = 1;
  }

type t = {
  target : string;
  options : options;
  cache : Cache.t;
  input : Cache.view;  (** version of the program being repaired *)
  detector : Detector.t;
  static_entries : string list option;
      (** entry-point override for static residual checking *)
  workload : (Machine.t -> unit) option;
  config : Machine.config;  (** tracing enabled; shared by detect/verify *)
  trace_cb : (Event.t -> unit) option;
      (** streaming event callback, in addition to accumulation *)
  (* ---- filled in by the passes, in order ---- *)
  mutable bugs : Report.bug list;  (* locate *)
  mutable site_stats : Sitestats.t option;
  mutable trace_events : int;
  mutable checker_stats : Hippo_staticcheck.Checker.stats option;
  mutable per_bug : (Report.bug * Fix.intra list) list;  (* compute *)
  mutable raw_fix_count : int;
  mutable reduced : Reduce.reduced list;  (* reduce *)
  mutable plan : Fix.plan;  (* hoist *)
  mutable decisions : Heuristic.decision list;
  mutable oracle : Hippo_alias.Oracle.t option;  (* resolved lazily *)
  mutable repaired : Cache.view option;  (* apply *)
  mutable apply_stats : Apply.stats option;
  mutable verification : Verify.outcome option;  (* verify (dynamic) *)
  mutable residual_static : Report.bug list option;  (* verify (static) *)
  (* ---- optimizer passes (Engine.optimize pipeline) ---- *)
  mutable opt_analysis : Optimize.analysis option;  (* opt-analyze *)
  mutable optimized : Cache.view option;  (* opt-apply *)
  mutable opt_outcome : Optimize.outcome option;
  mutable events : Event.t list;  (* newest first *)
}

let create ?(options = default_options) ?(cache = Cache.create ()) ?trace
    ?static_entries ~detector ~workload ~config ~name prog =
  {
    target = name;
    options;
    cache;
    input = Cache.view cache prog;
    detector;
    static_entries;
    workload;
    config = { config with Machine.trace = true };
    trace_cb = trace;
    bugs = [];
    site_stats = None;
    trace_events = 0;
    checker_stats = None;
    per_bug = [];
    raw_fix_count = 0;
    reduced = [];
    plan = { Fix.fixes = []; per_bug = [] };
    decisions = [];
    oracle = None;
    repaired = None;
    apply_stats = None;
    verification = None;
    residual_static = None;
    opt_analysis = None;
    optimized = None;
    opt_outcome = None;
    events = [];
  }

let program ctx = Cache.program ctx.input

(** Current program version: the repaired version once [apply] ran. *)
let version ctx =
  match ctx.repaired with
  | Some v -> Cache.version v
  | None -> Cache.version ctx.input

let repaired_program ctx = Option.map Cache.program ctx.repaired

let emit ctx event =
  ctx.events <- event :: ctx.events;
  match ctx.trace_cb with Some f -> f event | None -> ()

(** Events in emission order. *)
let events ctx = List.rev ctx.events

(** The alias oracle for this run, resolved once. Full-AA comes from the
    cache (Andersen is shared across runs on the same program version);
    Trace-AA needs dynamic per-site observations — the locate pass's, or
    a dedicated instrumented execution when the detector was static. A
    Trace-AA request with no workload at all is a clear error. *)
let oracle ctx =
  match ctx.oracle with
  | Some o -> o
  | None ->
      let o =
        match ctx.options.oracle with
        | Full_aa -> Cache.oracle ctx.input
        | Trace_aa -> (
            match ctx.site_stats with
            | Some stats -> Hippo_alias.Oracle.trace_aa stats
            | None -> (
                match ctx.workload with
                | Some workload ->
                    let t = Machine.create ctx.config (program ctx) in
                    Machine.run_workload t workload;
                    Hippo_alias.Oracle.trace_aa (Machine.site_stats t)
                | None ->
                    invalid_arg
                      "engine: the Trace-AA oracle needs a workload trace \
                       (site statistics); use Full-AA or supply a workload"))
      in
      ctx.oracle <- Some o;
      o

let set_oracle ctx o = ctx.oracle <- Some o
