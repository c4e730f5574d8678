(** The scenario fleet: build the app programs once, fan independent
    scenarios out over a domain pool, and fold their outcomes into one
    report whose digest is byte-identical at every [--jobs] width. *)

open Hippo_pmcheck
open Hippo_apps

type mode = Quick | Standard | Chaos

val mode_to_string : mode -> string
val rates_of_mode : mode -> Faults.rates

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

val default_config : config

type report = {
  config : config;
  digest : string;  (** MD5 over scenario digests, in scenario order *)
  outcomes : Scenario.outcome list;
  crashes : int;
  recoveries : int;
  reordered : int;
  torn : int;
  clock_ns : float;  (** total virtual time across scenarios *)
  violations : Scenario.violation list;
  violating : int list;  (** scenario indices with target violations *)
  baseline_violating : int list;
}

(** The machine config the harness opens sessions with (exposed so
    differential tests replay under identical machine settings). Every
    harness config opens sessions with the same machine settings. It
    keeps its old name because perfsuite/ compiles against it. *)
val interp_config : config -> Machine.config

val baseline_variant : App.kind -> App.variant
val scenario_config : config -> Scenario.config

(** [run cfg] plays [cfg.scenarios] scenarios over a [cfg.jobs]-wide
    pool. Program construction (including the repair pipeline for
    [Repaired]) happens once, up front. A session whose set-up traps
    (e.g. [nbuckets] too large for the PM pool) is
    [Error "<app>/<variant>: session set-up: <message>"]. *)
val run : config -> (report, string) result

(** The seed-stamped one-liner that replays a report's configuration
    serially (the canonical reproduction recipe). *)
val replay_cmdline : config -> string

val reproducer_text : config -> Scenario.outcome -> string

(** Write one reproducer file per violating scenario; returns the paths
    (scenario order). *)
val save_reproducers : dir:string -> config -> report -> string list
