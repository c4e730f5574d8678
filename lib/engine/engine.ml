(* The pass-manager engine: the six Fig. 2 passes over the shared
   context, each timed and evented. See engine.mli for the contract. *)

open Hippo_pmcheck

let flag b = if b then 1 else 0

(* ------------------------------------------------------------------ *)
(* Pass definitions *)

let locate =
  Pass.make "locate" (fun ctx ->
      let open Context in
      let outcome =
        ctx.detector.Detector.detect ctx.input ~workload:ctx.workload
          ~config:ctx.config
      in
      ctx.bugs <- outcome.Detector.bugs;
      ctx.site_stats <- outcome.Detector.site_stats;
      ctx.trace_events <- outcome.Detector.trace_events;
      ctx.checker_stats <- outcome.Detector.checker_stats;
      let counters =
        [
          ("bugs", List.length ctx.bugs);
          ("trace_events", ctx.trace_events);
        ]
        @
        match ctx.checker_stats with
        | Some s ->
            [
              ("summaries_computed",
               s.Hippo_staticcheck.Checker.summaries_computed);
              ("summaries_reused", s.Hippo_staticcheck.Checker.summary_hits);
            ]
        | None -> []
      in
      (counters, [ ("detector", ctx.detector.Detector.name) ]))

let compute =
  Pass.make "compute" (fun ctx ->
      let open Context in
      ctx.per_bug <- Compute.phase1 (program ctx) ctx.bugs;
      ctx.raw_fix_count <-
        List.fold_left (fun n (_, fs) -> n + List.length fs) 0 ctx.per_bug;
      ([ ("raw_fixes", ctx.raw_fix_count) ], []))

(* Reduction disabled: one reduced entry per raw fix, provenance kept. *)
let no_reduction per_bug =
  List.concat_map
    (fun (bug, fixes) ->
      List.map (fun fix -> { Reduce.fix; bugs = [ bug ] }) fixes)
    per_bug

let reduce =
  Pass.make "reduce" (fun ctx ->
      let open Context in
      ctx.reduced <-
        (if ctx.options.reduction then Reduce.phase2 (program ctx) ctx.per_bug
         else no_reduction ctx.per_bug);
      ( [
          ("fixes", List.length ctx.reduced);
          ("eliminated", ctx.raw_fix_count - List.length ctx.reduced);
        ],
        [ ("reduction", if ctx.options.reduction then "on" else "off") ] ))

let hoist =
  Pass.make "hoist" (fun ctx ->
      let open Context in
      let notes =
        if ctx.options.hoisting then begin
          let oracle = Context.oracle ctx in
          let plan, decisions =
            Heuristic.phase3 oracle (program ctx) ctx.reduced
          in
          ctx.plan <- plan;
          ctx.decisions <- decisions;
          [ ("oracle", oracle.Hippo_alias.Oracle.name) ]
        end
        else begin
          ctx.plan <- Heuristic.phase3_disabled ctx.reduced;
          ctx.decisions <- [];
          [ ("hoisting", "off") ]
        end
      in
      ( [
          ("fixes", List.length ctx.plan.Fix.fixes);
          ("hoisted", Fix.count_hoisted ctx.plan);
          ("intra", Fix.count_intra ctx.plan);
        ],
        notes ))

let apply_ =
  Pass.make "apply" (fun ctx ->
      let open Context in
      let oracle = Context.oracle ctx in
      let repaired, stats =
        Apply.apply ~reuse:ctx.options.clone_reuse ~style:ctx.options.style
          ~oracle (program ctx) ctx.plan
      in
      (* Register the rewritten program as a new version: this is the
         bump that keys all downstream analyses off the fresh program
         while leaving the input version's cache entries warm. *)
      let view = Cache.view ctx.cache repaired in
      ctx.repaired <- Some view;
      ctx.apply_stats <- Some stats;
      ( [
          ("clones_created", stats.Apply.clones_created);
          ("instrs_added", stats.Apply.instrs_added);
          ("output_instrs", Cache.size view);
          ("output_version", Cache.version view);
        ],
        [] ))

(* The one parallel pass: with [options.jobs > 1] the original and
   repaired workload executions run on separate domains (independent
   interpreter instances over immutable programs); results are collected
   in a fixed order, so the outcome is identical to the serial run. *)
let verify_jobs (ctx : Context.t) =
  match ctx.Context.workload with
  | Some _ -> min 2 ctx.Context.options.Context.jobs
  | None -> 1

let verify_ =
  Pass.make ~parallel:verify_jobs "verify" (fun ctx ->
      let open Context in
      let repaired =
        match ctx.repaired with
        | Some v -> v
        | None -> invalid_arg "engine: verify scheduled before apply"
      in
      match ctx.workload with
      | Some workload ->
          let outcome =
            Verify.check ~jobs:(verify_jobs ctx) ~workload ~config:ctx.config
              ~original:(program ctx) ~repaired:(Cache.program repaired)
          in
          ctx.verification <- Some outcome;
          ( [
              ("residual_bugs", List.length outcome.Verify.residual_bugs);
              ("outputs_match", flag outcome.Verify.outputs_match);
              ("pm_working_match", flag outcome.Verify.pm_working_match);
            ],
            [ ("mode", "dynamic") ] )
      | None ->
          let residual =
            (Cache.static_check ?entries:ctx.static_entries repaired)
              .Hippo_staticcheck.Checker.bugs
          in
          ctx.residual_static <- Some residual;
          ([ ("residual_bugs", List.length residual) ], [ ("mode", "static") ]))

let passes = [ locate; compute; reduce; hoist; apply_; verify_ ]

(* ------------------------------------------------------------------ *)
(* Optimizer pipeline: analyze / apply / verify over the input version.
   Same pass machinery, so runs are evented and timed like repairs. *)

let opt_analyze =
  Pass.make "opt-analyze" (fun ctx ->
      let open Context in
      let a =
        Optimize.analyze ~cache:ctx.cache ?entries:ctx.static_entries
          (program ctx)
      in
      ctx.opt_analysis <- Some a;
      ( [
          ("bugs", List.length a.Optimize.a_bugs);
          ("candidates", List.length a.Optimize.a_removals);
        ],
        List.map
          (fun r ->
            ( Optimize.rule_name r.Optimize.r_rule,
              Fmt.str "%a" Optimize.pp_removal r ))
          a.Optimize.a_removals ))

let opt_apply =
  Pass.make "opt-apply" (fun ctx ->
      let open Context in
      let a =
        match ctx.opt_analysis with
        | Some a -> a
        | None -> invalid_arg "engine: opt-apply scheduled before opt-analyze"
      in
      let view =
        match a.Optimize.a_removals with
        | [] -> ctx.input
        | removals ->
            Cache.view ctx.cache (Optimize.rewrite (program ctx) removals)
      in
      ctx.optimized <- Some view;
      ( [
          ("removed", List.length a.Optimize.a_removals);
          ("output_instrs", Cache.size view);
          ("output_version", Cache.version view);
        ],
        [] ))

let opt_verify =
  Pass.make "opt-verify" (fun ctx ->
      let open Context in
      let a = Option.get ctx.opt_analysis in
      let view = Option.get ctx.optimized in
      let before =
        Hippo_perfmodel.Timed.static_counts (program ctx)
      in
      let removals = a.Optimize.a_removals in
      let residual =
        if removals = [] then a.Optimize.a_bugs
        else
          (Cache.static_check ?entries:ctx.static_entries view)
            .Hippo_staticcheck.Checker.bugs
      in
      let equal = Optimize.reports_equal a.Optimize.a_bugs residual in
      (* do no harm: static-report drift reverts the whole rewrite *)
      let view, removals, residual =
        if equal then (view, removals, residual)
        else (ctx.input, [], a.Optimize.a_bugs)
      in
      ctx.optimized <- Some view;
      let outcome =
        {
          Optimize.o_prog = Cache.program view;
          o_removals = removals;
          o_candidates = List.length a.Optimize.a_removals;
          o_before = before;
          o_after = Hippo_perfmodel.Timed.static_counts (Cache.program view);
          o_bugs = a.Optimize.a_bugs;
          o_residual = residual;
          o_report_equal = equal;
          o_reverted = not equal;
        }
      in
      ctx.opt_outcome <- Some outcome;
      ( [
          ("removed", List.length removals);
          ("residual_bugs", List.length residual);
          ("report_equal", flag equal);
          ("reverted", flag (not equal));
        ],
        [ ("mode", "static") ] ))

let opt_passes = [ opt_analyze; opt_apply; opt_verify ]

(* ------------------------------------------------------------------ *)
(* Entry points *)

let run ?options ?cache ?trace ?static_entries ~detector ?workload
    ?(config = Machine.default_config) ~name prog =
  let ctx =
    Context.create ?options ?cache ?trace ?static_entries ~detector ~workload
      ~config ~name prog
  in
  Pass.run_all ctx passes;
  ctx

let optimize ?cache ?trace ?static_entries ?(name = "optimize") prog =
  let ctx =
    Context.create ?cache ?trace ?static_entries
      ~detector:(Detector.preset []) ~workload:None
      ~config:Machine.default_config ~name prog
  in
  Pass.run_all ctx opt_passes;
  ctx

let plan ?options ?cache ?trace ~oracle prog bugs =
  let ctx =
    Context.create ?options ?cache ~detector:(Detector.preset bugs)
      ?trace ~workload:None ~config:Machine.default_config ~name:"plan" prog
  in
  Context.set_oracle ctx oracle;
  Pass.run_all ctx [ locate; compute; reduce; hoist ];
  let open Context in
  (ctx.plan, ctx.decisions, ctx.raw_fix_count - List.length ctx.reduced)
