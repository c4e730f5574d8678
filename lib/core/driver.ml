(* The repair pipeline (Fig. 2): locate -> compute -> reduce -> hoist ->
   apply -> verify, and the optimizer's opt-analyze -> opt-apply ->
   opt-verify, as plain functions over local values. Each stage is
   timed and emits one [Event.t]; stage order follows from data flow. *)

open Hippo_pmir
open Hippo_pmcheck
module E = Hippo_engine
module Cache = E.Cache
module Event = E.Event
module Checker = Hippo_staticcheck.Checker

type oracle_choice = Full_aa | Trace_aa

type options = {
  oracle : oracle_choice;
  hoisting : bool;  (** Phase 3 on/off (off = the H-intra configuration) *)
  reduction : bool;  (** Phase 2 on/off (ablation A2) *)
  clone_reuse : bool;  (** share persistent subprograms (ablation A1) *)
  style : Apply.style;  (** raw clwb/sfence vs portable libpmem calls *)
  jobs : int;  (** domain budget for the verify stage; 1 = fully serial *)
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

type result = {
  target : string;
  bugs : Report.bug list;
  plan : Fix.plan;
  decisions : E.Heuristic.decision list;
  repaired : Program.t;
  apply_stats : Apply.stats;
  verification : Verify.outcome;
  raw_fix_count : int;
  reduce_eliminated : int;
  input_instrs : int;  (** program size before repair, in IR instructions *)
  output_instrs : int;
  time_s : float;  (** process CPU time ([Sys.time]) of the whole pipeline *)
  peak_heap_bytes : int;
  trace_events : int;
  events : Event.t list;  (** structured per-stage events *)
}

let peak_heap_bytes () =
  (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)

let flag b = if b then 1 else 0

(* ------------------------------------------------------------------ *)
(* Stages *)

(* One run's events: kept newest first and streamed to [?trace]. *)
type log = {
  l_target : string;
  l_trace : (Event.t -> unit) option;
  mutable l_events : Event.t list;
}

let log ?trace target = { l_target = target; l_trace = trace; l_events = [] }
let events log = List.rev log.l_events

(* Time [run], which returns its value with the event's counters and
   notes, and emit the event. [version] is the program version the stage
   starts from; [parallel] the domains it fans out over. *)
let stage log ?(parallel = 1) ~version pass run =
  let started = Sys.time () in
  let value, counters, notes = run () in
  let dur_s = Sys.time () -. started in
  let event =
    {
      Event.pass;
      target = log.l_target;
      version;
      parallel;
      dur_s;
      counters;
      notes;
    }
  in
  log.l_events <- event :: log.l_events;
  Option.iter (fun f -> f event) log.l_trace;
  value

let locate_counters ~bugs ~trace_events (checker : Checker.stats option) =
  [ ("bugs", List.length bugs); ("trace_events", trace_events) ]
  @
  match checker with
  | Some s ->
      [
        ("summaries_computed", s.summaries_computed);
        ("summaries_reused", s.summary_hits);
      ]
  | None -> []

(* Reduction disabled: one reduced entry per raw fix, provenance kept. *)
let no_reduction per_bug =
  List.concat_map
    (fun (bug, fixes) ->
      List.map (fun fix -> { E.Reduce.fix; bugs = [ bug ] }) fixes)
    per_bug

type fixes = {
  f_plan : Fix.plan;
  f_decisions : E.Heuristic.decision list;
  f_raw : int;  (** Phase 1's fix count *)
  f_eliminated : int;  (** fixes Phase 2 merged away *)
}

(* Steps 2-3: compute, reduce and hoist the fixes for [bugs]. [oracle]
   is forced only when hoisting is on. *)
let fix_stages log ~options ~version ~oracle prog bugs =
  let per_bug, raw =
    stage log ~version "compute" (fun () ->
        let per_bug = E.Compute.phase1 prog bugs in
        let raw =
          List.fold_left (fun n (_, fs) -> n + List.length fs) 0 per_bug
        in
        ((per_bug, raw), [ ("raw_fixes", raw) ], []))
  in
  let reduced =
    stage log ~version "reduce" (fun () ->
        let reduced =
          if options.reduction then E.Reduce.phase2 prog per_bug
          else no_reduction per_bug
        in
        ( reduced,
          [
            ("fixes", List.length reduced);
            ("eliminated", raw - List.length reduced);
          ],
          [ ("reduction", if options.reduction then "on" else "off") ] ))
  in
  let plan, decisions =
    stage log ~version "hoist" (fun () ->
        let (plan, decisions), notes =
          if options.hoisting then
            let oracle = Lazy.force oracle in
            ( E.Heuristic.phase3 oracle prog reduced,
              [ ("oracle", oracle.Hippo_alias.Oracle.name) ] )
          else
            ((E.Heuristic.phase3_disabled reduced, []), [ ("hoisting", "off") ])
        in
        ( (plan, decisions),
          [
            ("fixes", List.length plan.Fix.fixes);
            ("hoisted", Fix.count_hoisted plan);
            ("intra", Fix.count_intra plan);
          ],
          notes ))
  in
  {
    f_plan = plan;
    f_decisions = decisions;
    f_raw = raw;
    f_eliminated = raw - List.length reduced;
  }

(* Rewrite the program and register it in the cache as a new version:
   downstream analyses key off the fresh version while the input
   version's entries stay warm. *)
let apply_stage log ~options ~version ~cache ~oracle prog plan =
  stage log ~version "apply" (fun () ->
      let repaired, stats =
        Apply.apply ~reuse:options.clone_reuse ~style:options.style
          ~oracle:(Lazy.force oracle) prog plan
      in
      let view = Cache.view cache repaired in
      ( (view, stats),
        [
          ("clones_created", stats.Apply.clones_created);
          ("instrs_added", stats.Apply.instrs_added);
          ("output_instrs", Cache.size view);
          ("output_version", Cache.version view);
        ],
        [] ))

(* ------------------------------------------------------------------ *)
(* Entry points *)

(** [plan ?options ~oracle prog bugs] runs Steps 2-3 only: compute the fix
    plan for externally-supplied bug reports (e.g. parsed from an on-disk
    trace file, the artifact's command-line mode). *)
let plan ?(options = default_options) ?(cache = Cache.create ()) ?trace
    ~oracle prog (bugs : Report.bug list) :
    Fix.plan * E.Heuristic.decision list * int =
  let log = log ?trace "plan" in
  let version = Cache.version (Cache.view cache prog) in
  stage log ~version "locate" (fun () ->
      ( (),
        locate_counters ~bugs ~trace_events:0 None,
        [ ("detector", "preset") ] ));
  let f =
    fix_stages log ~options ~version ~oracle:(Lazy.from_val oracle) prog bugs
  in
  (f.f_plan, f.f_decisions, f.f_eliminated)

type detector = E.Detector.choice = Dynamic | Static | Both

let repair ?(options = default_options) ?(detector = Dynamic) ?static_entries
    ?(cache = Cache.create ()) ?trace ~name ~(workload : Machine.t -> unit)
    ?(config = Machine.default_config) prog : result =
  let started = Sys.time () in
  let log = log ?trace name in
  let input = Cache.view cache prog in
  let version = Cache.version input in
  let found =
    stage log ~version "locate" (fun () ->
        let o, name =
          E.Detector.detect ?entries:static_entries detector input ~workload
            ~config
        in
        ( o,
          locate_counters ~bugs:o.bugs ~trace_events:o.trace_events
            o.checker_stats,
          [ ("detector", name) ] ))
  in
  (* Trace-AA needs per-site observations: the dynamic detector's, or
     an instrumented run when the reports came from the static checker. *)
  let oracle =
    lazy
      (match options.oracle with
      | Full_aa -> Cache.oracle input
      | Trace_aa ->
          Hippo_alias.Oracle.trace_aa
            (match found.site_stats with
            | Some stats -> stats
            | None ->
                let t =
                  Machine.create { config with Machine.trace = true } prog
                in
                Machine.run_workload t workload;
                Machine.site_stats t))
  in
  let f = fix_stages log ~options ~version ~oracle prog found.bugs in
  let repaired, apply_stats =
    apply_stage log ~options ~version ~cache ~oracle prog f.f_plan
  in
  (* with [jobs > 1] the original and repaired executions run on two
     domains; results are collected in a fixed order *)
  let jobs = min 2 options.jobs in
  let verification =
    stage log ~parallel:jobs ~version:(Cache.version repaired) "verify"
      (fun () ->
        let o =
          Verify.check ~jobs ~workload ~config ~original:prog
            ~repaired:(Cache.program repaired)
        in
        ( o,
          [
            ("residual_bugs", List.length o.Verify.residual_bugs);
            ("outputs_match", flag o.Verify.outputs_match);
            ("pm_working_match", flag o.Verify.pm_working_match);
          ],
          [ ("mode", "dynamic") ] ))
  in
  {
    target = name;
    bugs = found.bugs;
    plan = f.f_plan;
    decisions = f.f_decisions;
    repaired = Cache.program repaired;
    apply_stats;
    verification;
    raw_fix_count = f.f_raw;
    reduce_eliminated = f.f_eliminated;
    input_instrs = Cache.size input;
    output_instrs = Cache.size repaired;
    time_s = Sys.time () -. started;
    peak_heap_bytes = peak_heap_bytes ();
    trace_events = found.trace_events;
    events = events log;
  }

type static_result = {
  s_target : string;
  s_bugs : Report.bug list;
  s_plan : Fix.plan;
  s_decisions : E.Heuristic.decision list;
  s_repaired : Program.t;
  s_apply : Apply.stats;
  s_residual : Report.bug list;
  s_checker : Checker.stats;
  s_time : float;
  s_events : Event.t list;
}

(** [repair_static ?options ?entries ~name prog] is the workload-free
    pipeline: bugs come from the static checker, and verification re-runs
    the static checker on the repaired program (effectiveness only —
    "do no harm" needs an execution to compare against, so callers with a
    workload should use [repair ~detector:Static]). *)
let repair_static ?(options = default_options) ?entries
    ?(cache = Cache.create ()) ?trace ~name prog : static_result =
  (match options.oracle with
  | Full_aa -> ()
  | Trace_aa ->
      invalid_arg
        "Driver.repair_static: the Trace-AA oracle needs a workload trace; \
         use repair ~detector:Static with a workload, or the Full-AA oracle");
  let started = Sys.time () in
  let log = log ?trace name in
  let input = Cache.view cache prog in
  let version = Cache.version input in
  let checked =
    stage log ~version "locate" (fun () ->
        let r = Cache.static_check ?entries input in
        ( r,
          locate_counters ~bugs:r.bugs ~trace_events:0 (Some r.stats),
          [ ("detector", "static") ] ))
  in
  let oracle = lazy (Cache.oracle input) in
  let f = fix_stages log ~options ~version ~oracle prog checked.bugs in
  let repaired, apply_stats =
    apply_stage log ~options ~version ~cache ~oracle prog f.f_plan
  in
  let residual =
    stage log ~version:(Cache.version repaired) "verify" (fun () ->
        let residual = (Cache.static_check ?entries repaired).bugs in
        ( residual,
          [ ("residual_bugs", List.length residual) ],
          [ ("mode", "static") ] ))
  in
  {
    s_target = name;
    s_bugs = checked.bugs;
    s_plan = f.f_plan;
    s_decisions = f.f_decisions;
    s_repaired = Cache.program repaired;
    s_apply = apply_stats;
    s_residual = residual;
    s_checker = checked.stats;
    s_time = Sys.time () -. started;
    s_events = events log;
  }

let pp_static_summary ppf r =
  Fmt.pf ppf
    "@[<v>target: %s@,static bugs: %d@,fixes: %d (%d intraprocedural, %d \
     interprocedural)@,residual static bugs: %d@,summaries: %d computed, %d \
     reused@]"
    r.s_target
    (List.length r.s_bugs)
    (List.length r.s_plan.Fix.fixes)
    (Fix.count_intra r.s_plan)
    (Fix.count_hoisted r.s_plan)
    (List.length r.s_residual)
    r.s_checker.summaries_computed r.s_checker.summary_hits

let pp_summary ppf r =
  Fmt.pf ppf
    "@[<v>target: %s@,bugs: %d@,fixes: %d (%d intraprocedural, %d \
     interprocedural)@,reduction eliminated: %d@,IR size: %d -> %d \
     (+%.3f%%)@,verification: %a@]"
    r.target (List.length r.bugs)
    (List.length r.plan.Fix.fixes)
    (Fix.count_intra r.plan) (Fix.count_hoisted r.plan) r.reduce_eliminated
    r.input_instrs r.output_instrs
    (100.0
    *. float_of_int (r.output_instrs - r.input_instrs)
    /. float_of_int (max 1 r.input_instrs))
    Verify.pp r.verification

(* ------------------------------------------------------------------ *)
(* Flush/fence optimizer (Bentō-style: repair must do no harm to speed) *)

module O = E.Optimize

type opt_result = {
  t_target : string;
  t_outcome : O.outcome;
  t_time : float;
  t_events : Event.t list;
}

let optimize ?entries ?(cache = Cache.create ()) ?trace ~name prog :
    opt_result =
  let started = Sys.time () in
  let log = log ?trace name in
  let input = Cache.view cache prog in
  (* every stage reports the input version: the optimized program is a
     candidate until opt-verify keeps it *)
  let version = Cache.version input in
  let a =
    stage log ~version "opt-analyze" (fun () ->
        let a = O.analyze ~cache ?entries prog in
        ( a,
          [
            ("bugs", List.length a.O.a_bugs);
            ("candidates", List.length a.O.a_removals);
          ],
          List.map
            (fun r -> (O.rule_name r.O.r_rule, Fmt.str "%a" O.pp_removal r))
            a.O.a_removals ))
  in
  let candidate =
    stage log ~version "opt-apply" (fun () ->
        let view =
          match a.O.a_removals with
          | [] -> input
          | removals -> Cache.view cache (O.rewrite prog removals)
        in
        ( view,
          [
            ("removed", List.length a.O.a_removals);
            ("output_instrs", Cache.size view);
            ("output_version", Cache.version view);
          ],
          [] ))
  in
  let outcome =
    stage log ~version "opt-verify" (fun () ->
        let residual =
          if a.O.a_removals = [] then a.O.a_bugs
          else (Cache.static_check ?entries candidate).bugs
        in
        let equal = O.reports_equal a.O.a_bugs residual in
        (* do no harm: static-report drift reverts the whole rewrite *)
        let view, removals, residual =
          if equal then (candidate, a.O.a_removals, residual)
          else (input, [], a.O.a_bugs)
        in
        let kept = Cache.program view in
        ( {
            O.o_prog = kept;
            o_removals = removals;
            o_candidates = List.length a.O.a_removals;
            o_before = Hippo_perfmodel.Timed.static_counts prog;
            o_after = Hippo_perfmodel.Timed.static_counts kept;
            o_bugs = a.O.a_bugs;
            o_residual = residual;
            o_report_equal = equal;
            o_reverted = not equal;
          },
          [
            ("removed", List.length removals);
            ("residual_bugs", List.length residual);
            ("report_equal", flag equal);
            ("reverted", flag (not equal));
          ],
          [ ("mode", "static") ] ))
  in
  {
    t_target = name;
    t_outcome = outcome;
    t_time = Sys.time () -. started;
    t_events = events log;
  }

let pp_opt_summary ppf r =
  Fmt.pf ppf "@[<v>target: %s@,%a@]" r.t_target O.pp_outcome r.t_outcome
