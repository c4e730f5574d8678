(* First-class bug sources: dynamic execution, the static checker and
   their union, all producing the same outcome shape. *)

open Hippo_pmcheck

type choice = Dynamic | Static | Both

type outcome = {
  bugs : Report.bug list;
  site_stats : Sitestats.t option;
  trace_events : int;
  checker_stats : Hippo_staticcheck.Checker.stats option;
}

type t = {
  name : string;
  detect :
    Cache.view ->
    workload:(Machine.t -> unit) ->
    config:Machine.config ->
    outcome;
}

let dynamic =
  {
    name = "dynamic";
    detect =
      (fun view ~workload ~config ->
        let cfg = { config with Machine.trace = true } in
        let t = Machine.create cfg (Cache.program view) in
        Machine.run_workload t workload;
        {
          bugs = Machine.bugs t;
          site_stats = Some (Machine.site_stats t);
          trace_events = List.length (Machine.trace t);
          checker_stats = None;
        });
  }

let static_ ?entries () =
  {
    name = "static";
    detect =
      (fun view ~workload:_ ~config:_ ->
        let r = Cache.static_check ?entries view in
        {
          bugs = r.Hippo_staticcheck.Checker.bugs;
          site_stats = None;
          trace_events = 0;
          checker_stats = Some r.Hippo_staticcheck.Checker.stats;
        });
  }

let union a b =
  {
    name = a.name ^ "+" ^ b.name;
    detect =
      (fun view ~workload ~config ->
        let ra = a.detect view ~workload ~config in
        let rb = b.detect view ~workload ~config in
        let merge oa ob = match oa with Some _ -> oa | None -> ob in
        {
          bugs = Report.dedup (ra.bugs @ rb.bugs);
          site_stats = merge ra.site_stats rb.site_stats;
          trace_events = max ra.trace_events rb.trace_events;
          checker_stats = merge ra.checker_stats rb.checker_stats;
        });
  }

let of_choice ?entries = function
  | Dynamic -> dynamic
  | Static -> static_ ?entries ()
  | Both -> union dynamic (static_ ?entries ())
