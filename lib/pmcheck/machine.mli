(** Machine state shared by both execution tiers.

    One state record owns everything an execution accumulates — memory,
    persistency state, trace, bugs, output, simulated cost, coverage,
    crash points. {!Compile} (the production tier) and {!Interp} (its
    differential oracle) are two dispatch strategies over this state, and
    every caller names this module, not {!Interp}, for machine state
    and configuration.

    The record is exposed concretely because the dispatch loops live in
    sibling modules and field access must not cost a function call. Treat
    it as read-only outside [lib/pmcheck]. *)

open Hippo_pmir

exception Aborted
exception Out_of_fuel
exception Stopped_at_crash

type config = {
  trace : bool;  (** record the PM operation trace and site statistics *)
  fuel : int;  (** maximum executed instructions *)
  cost : Cost.t option;  (** account simulated latency *)
  track_images : bool;
      (** maintain incremental {!Imghash} fingerprints of both PM images
          (the single-pass crash sweep's capture mode; default false) *)
  coverage : Coverage.t option;
      (** mark executed control edges in this map (the fuzzer's signal);
          [None] (the default) skips all marking *)
  vol_size : int;
  stack_size : int;
  global_size : int;
  pm_size : int;
}

val default_config : config

type fcell = { mutable fv : float }
(** all-float cell: in-place (unboxed) accumulation for simulated cost *)

type t = {
  prog : Program.t;
  pfuncs : Prep.pfunc array;
  fidx : (string, int) Hashtbl.t;
  mem : Mem.t;
  ps : Pstate.t;
  cfg : config;
  cov : Coverage.t option;  (** = [cfg.coverage], hoisted for the hot loop *)
  compiled : (int array -> int) option array;
      (** per-function entry closures, built lazily by {!Compile}. The
          table is created by {!create} and handed on by {!restart}, so
          a restart compiles nothing again. *)
  binding : binding;
  cost_acc : fcell;
  mutable seq : int;
  mutable steps : int;
  mutable trace_rev : Trace.event list;
  mutable bugs_rev : Report.bug list;
  mutable output_rev : int list;
  mutable crashes_hit : int;
  mutable armed_crash : int option;
  mutable crash_hook : (unit -> unit) option;
  mutable frames : Trace.stack;  (** current call stack, innermost first *)
  stats : Sitestats.t;  (** per-site pointer-class observations *)
}

(** The machine compiled code runs on, shared by the machines of a
    restart chain: compiled closures read [cur]'s state through it
    rather than capturing one machine. {!Compile.call} points it at the
    machine it runs; the [cur_*] fields are [cur]'s [mem], [ps],
    [cost_acc] and [stats]. *)
and binding = {
  mutable cur : t;
  mutable cur_mem : Mem.t;
  mutable cur_ps : Pstate.t;
  mutable cur_acc : fcell;
  mutable cur_stats : Sitestats.t;
}

(** [create ?pm_image cfg prog] prepares [prog] and builds a fresh
    machine over a fresh pool, seeded with [pm_image] if given. *)
val create : ?pm_image:Bytes.t -> config -> Program.t -> t

(** [restart ~pm_image t] is the machine a crash of [t] reboots into: the
    same program, config, prepared and compiled code, over a pool seeded
    with [pm_image] whose allocator resumes at [t]'s high-water mark (a
    real PM allocator persists its heap metadata). Everything execution
    mutates starts fresh — memory, persistency state, cost, steps, crash
    points, trace, bugs and output — and [t] is left untouched.
    O(bytes of [pm_image]); nothing is re-prepared or recompiled.

    [t] and the restarted machine form a chain that shares [compiled]
    and [binding], so the machines of one chain must run on one domain
    at a time (a sim scenario is one pool task). *)
val restart : pm_image:Bytes.t -> t -> t

val mem : t -> Mem.t
val set_crash_hook : t -> (unit -> unit) -> unit

(** [arm_crash t ~at] schedules {!Stopped_at_crash} for the [at]-th
    explicit crash point (absolute, 1-based, against
    {!crash_points_hit}). It is the one way to stop a run at a crash
    point, and it is mutable on a live machine: the simulation harness
    arms a crash for one workload call and disarms for the next, without
    rebuilding the session. Honoured identically by both tiers (the
    check lives in {!record_crash_point}). *)
val arm_crash : t -> at:int -> unit

val disarm_crash : t -> unit
val crash_points_hit : t -> int
val next_seq : t -> int
val push_event : t -> Trace.event -> unit
val classify_arg : int -> Trace.arg_class

(** [record_crash_point t ~iid ~loc] advances the crash-point counter,
    records the trace event, collects unpersisted-store bugs, fires the
    crash hook and honours {!arm_crash} — identically in both tiers. *)
val record_crash_point : t -> iid:Iid.t option -> loc:Loc.t -> unit

(** The implicit crash point at program exit. *)
val exit_check : t -> unit

(** [run_workload t workload] runs [workload t], then {!exit_check} if
    the workload returned. A workload stopped at a crash point
    ({!Stopped_at_crash}) never reaches program exit, so it gets no exit
    check: its at-exit reports would be phantom bugs. Every detector
    and verifier run goes through this. *)
val run_workload : t -> (t -> unit) -> unit

val trace : t -> Trace.event list
val site_stats : t -> Sitestats.t
val bugs : t -> Report.bug list
val raw_bugs : t -> Report.bug list
val output : t -> int list
val cost_ns : t -> float
val steps : t -> int
val pstate : t -> Pstate.t
val crash_image : t -> Bytes.t
val global_addr : t -> string -> int
