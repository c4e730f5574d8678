(* The locate stage's bug sources: dynamic execution, the static checker
   and their union, all producing the same outcome shape. *)

open Hippo_pmcheck

type choice = Dynamic | Static | Both

type outcome = {
  bugs : Report.bug list;
  site_stats : Sitestats.t option;
  trace_events : int;
  checker_stats : Hippo_staticcheck.Checker.stats option;
}

let dynamic view ~workload ~config =
  let t =
    Machine.create { config with Machine.trace = true } (Cache.program view)
  in
  Machine.run_workload t workload;
  {
    bugs = Machine.bugs t;
    site_stats = Some (Machine.site_stats t);
    trace_events = List.length (Machine.trace t);
    checker_stats = None;
  }

let static_ ?entries view =
  let r = Cache.static_check ?entries view in
  {
    bugs = r.Hippo_staticcheck.Checker.bugs;
    site_stats = None;
    trace_events = 0;
    checker_stats = Some r.Hippo_staticcheck.Checker.stats;
  }

let detect ?entries choice view ~workload ~config =
  match choice with
  | Dynamic -> (dynamic view ~workload ~config, "dynamic")
  | Static -> (static_ ?entries view, "static")
  | Both ->
      let d = dynamic view ~workload ~config in
      let s = static_ ?entries view in
      ( {
          d with
          bugs = Report.dedup (d.bugs @ s.bugs);
          checker_stats = s.checker_stats;
        },
        "dynamic+static" )
