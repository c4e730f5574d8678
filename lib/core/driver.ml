(** End-to-end repair pipeline (Fig. 2) — thin wrappers over the
    pass-manager engine in [lib/engine].

    The engine runs locate -> compute -> reduce -> hoist -> apply ->
    verify over a shared context, memoizing analyses in a versioned
    cache and emitting one structured event per pass; these wrappers
    keep the historical [plan] / [repair] / [repair_static] API (and
    result shapes) for every existing caller, and add the optional
    [?cache] / [?trace] hooks that expose the engine's analysis reuse
    and structured tracing. *)

open Hippo_pmir
open Hippo_pmcheck
module E = Hippo_engine

let now = E.Unix_time.now

type oracle_choice = E.Context.oracle_choice = Full_aa | Trace_aa

type options = E.Context.options = {
  oracle : oracle_choice;
  hoisting : bool;  (** Phase 3 on/off (off = the H-intra configuration) *)
  reduction : bool;  (** Phase 2 on/off (ablation A2) *)
  clone_reuse : bool;  (** share persistent subprograms (ablation A1) *)
  style : Apply.style;  (** raw clwb/sfence vs portable libpmem calls *)
  jobs : int;  (** domain budget for parallel passes; 1 = fully serial *)
}

let default_options = E.Context.default_options

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
  time_s : float;  (** wall-clock time of the whole pipeline *)
  peak_heap_bytes : int;
  trace_events : int;
  events : E.Event.t list;  (** structured per-pass engine events *)
}

let peak_heap_bytes () =
  (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)

(** [plan ?options ~oracle prog bugs] runs Steps 2-3 only: compute the fix
    plan for externally-supplied bug reports (e.g. parsed from an on-disk
    trace file, the artifact's command-line mode). *)
let plan ?(options = default_options) ?cache ?trace ~oracle prog
    (bugs : Report.bug list) : Fix.plan * E.Heuristic.decision list * int =
  E.Engine.plan ~options ?cache ?trace ~oracle prog bugs

type detector = E.Detector.choice = Dynamic | Static | Both

let repair ?(options = default_options) ?(detector = Dynamic) ?static_entries
    ?cache ?trace ~name ~(workload : Machine.t -> unit)
    ?(config = Machine.default_config) prog : result =
  let started = now () in
  let ctx =
    E.Engine.run ~options ?cache ?trace ?static_entries
      ~detector:(E.Detector.of_choice ?entries:static_entries detector)
      ~workload ~config ~name prog
  in
  let open E.Context in
  let repaired_view = Option.get ctx.repaired in
  {
    target = name;
    bugs = ctx.bugs;
    plan = ctx.plan;
    decisions = ctx.decisions;
    repaired = E.Cache.program repaired_view;
    apply_stats = Option.get ctx.apply_stats;
    verification = Option.get ctx.verification;
    raw_fix_count = ctx.raw_fix_count;
    reduce_eliminated = ctx.raw_fix_count - List.length ctx.reduced;
    input_instrs = E.Cache.size ctx.input;
    output_instrs = E.Cache.size repaired_view;
    time_s = now () -. started;
    peak_heap_bytes = peak_heap_bytes ();
    trace_events = ctx.trace_events;
    events = E.Context.events ctx;
  }

type static_result = {
  s_target : string;
  s_bugs : Report.bug list;
  s_plan : Fix.plan;
  s_decisions : E.Heuristic.decision list;
  s_repaired : Program.t;
  s_apply : Apply.stats;
  s_residual : Report.bug list;
  s_checker : Hippo_staticcheck.Checker.stats;
  s_time : float;
  s_events : E.Event.t list;
}

(** [repair_static ?options ?entries ~name prog] is the workload-free
    pipeline: bugs come from the static checker, and verification re-runs
    the static checker on the repaired program (effectiveness only —
    "do no harm" needs an execution to compare against, so callers with a
    workload should use [repair ~detector:Static]). *)
let repair_static ?(options = default_options) ?entries ?cache ?trace ~name
    prog : static_result =
  (match options.oracle with
  | Full_aa -> ()
  | Trace_aa ->
      invalid_arg
        "Driver.repair_static: the Trace-AA oracle needs a workload trace; \
         use repair ~detector:Static with a workload, or the Full-AA oracle");
  let started = now () in
  let ctx =
    E.Engine.run ~options ?cache ?trace ?static_entries:entries
      ~detector:(E.Detector.static_ ?entries ())
      ~name prog
  in
  let open E.Context in
  let repaired_view = Option.get ctx.repaired in
  {
    s_target = name;
    s_bugs = ctx.bugs;
    s_plan = ctx.plan;
    s_decisions = ctx.decisions;
    s_repaired = E.Cache.program repaired_view;
    s_apply = Option.get ctx.apply_stats;
    s_residual = Option.value ctx.residual_static ~default:[];
    s_checker = Option.get ctx.checker_stats;
    s_time = now () -. started;
    s_events = E.Context.events ctx;
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
    r.s_checker.Hippo_staticcheck.Checker.summaries_computed
    r.s_checker.Hippo_staticcheck.Checker.summary_hits

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

type opt_result = {
  t_target : string;
  t_outcome : E.Optimize.outcome;
  t_time : float;
  t_events : E.Event.t list;
}

let optimize ?entries ?cache ?trace ~name prog : opt_result =
  let started = now () in
  let ctx =
    E.Engine.optimize ?cache ?trace ?static_entries:entries ~name prog
  in
  {
    t_target = name;
    t_outcome = Option.get ctx.E.Context.opt_outcome;
    t_time = now () -. started;
    t_events = E.Context.events ctx;
  }

let pp_opt_summary ppf r =
  Fmt.pf ppf "@[<v>target: %s@,%a@]" r.t_target E.Optimize.pp_outcome
    r.t_outcome
