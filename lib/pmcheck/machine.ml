(** Machine state shared by both execution tiers.

    Owns everything an execution accumulates — memory, persistency state,
    trace, bugs, output, simulated cost, coverage, crash points — plus the
    run configuration. The interpreter ({!Interp}) and the compiled tier
    ({!Compile}) are two dispatch strategies over this one state, which is
    what makes their results comparable bit for bit. *)

open Hippo_pmir

exception Aborted
exception Out_of_fuel
exception Stopped_at_crash

type config = {
  trace : bool;  (** record the PM operation trace *)
  fuel : int;  (** maximum interpreted instructions *)
  cost : Cost.t option;  (** account simulated latency *)
  track_images : bool;  (** fingerprint both PM images incrementally *)
  coverage : Coverage.t option;
      (** mark executed control edges in this map (the fuzzer's signal);
          [None] (the default) skips all marking *)
  vol_size : int;
  stack_size : int;
  global_size : int;
  pm_size : int;
}

(* [trace = true] is the inspection-friendly default for one-shot runs
   and the repair pipeline (the dynamic detector and Trace-AA read the
   events). Every hot loop — crash sweeps, the fuzz oracle, the served
   store, bench cases — overrides it to [false] at its own call site:
   event materialization is the single biggest per-instruction cost,
   and seq numbers advance identically either way. *)
let default_config =
  {
    trace = true;
    fuel = 200_000_000;
    cost = None;
    track_images = false;
    coverage = None;
    vol_size = 1 lsl 24;
    stack_size = 1 lsl 22;
    global_size = 1 lsl 20;
    pm_size = 1 lsl 24;
  }

(* The simulated-latency accumulator lives in its own all-float record so
   both tiers update it in place: a [mutable float] in the mixed-field
   state record below would re-box on every addition, which is the single
   largest per-instruction allocation when cost accounting is on. *)
type fcell = { mutable fv : float }

type t = {
  prog : Program.t;
  pfuncs : Prep.pfunc array;
  fidx : (string, int) Hashtbl.t;
  mem : Mem.t;
  ps : Pstate.t;
  cfg : config;
  cov : Coverage.t option;  (** = [cfg.coverage], hoisted for the hot loop *)
  compiled : (int array -> int) option array;
      (** per-function entry closures, built lazily by {!Compile} and
          shared by every machine of a restart chain *)
  binding : binding;  (** shared by every machine of a restart chain *)
  cost_acc : fcell;
  mutable seq : int;
  mutable steps : int;
  mutable trace_rev : Trace.event list;
  mutable bugs_rev : Report.bug list;
  mutable output_rev : int list;
  mutable crashes_hit : int;
  mutable armed_crash : int option;
      (** stop when [crashes_hit] reaches this absolute count; re-armable
          on a live machine (the simulation harness injects crashes
          mid-run without rebuilding the session; tier-uniform because
          both dispatch loops share {!record_crash_point}) *)
  mutable crash_hook : (unit -> unit) option;
      (** fired at every explicit crash point (the single-pass sweep's
          image-capture callback) *)
  mutable frames : Trace.stack;  (** current call stack, innermost first *)
  stats : Sitestats.t;  (** per-site pointer-class observations *)
}

(* The machine compiled code runs on. Compiled closures read the
   execution state through this record instead of capturing one machine,
   so a restart keeps them: {!Compile.call} points the binding at the
   machine it runs. The [cur_*] fields cache [cur]'s own so that a
   closure reaches them with one load more than a captured value. *)
and binding = {
  mutable cur : t;
  mutable cur_mem : Mem.t;
  mutable cur_ps : Pstate.t;
  mutable cur_acc : fcell;
  mutable cur_stats : Sitestats.t;
}

let new_mem ?pm_image ?pm_brk (cfg : config) prog =
  Mem.create ~vol_size:cfg.vol_size ~stack_size:cfg.stack_size
    ~global_size:cfg.global_size ~pm_size:cfg.pm_size ?pm_image ?pm_brk
    ~track_images:cfg.track_images (Program.globals prog)

(* A machine over [mem] running the already-prepared [pfuncs]: every
   field that execution mutates starts fresh. Without [binding] the
   machine starts a chain and is bound to itself. *)
let assemble ~prog ~cfg ~pfuncs ~fidx ~compiled ?binding mem =
  let ps = Pstate.create ()
  and cost_acc = { fv = 0.0 }
  and stats = Sitestats.create () in
  let rec t =
    {
      prog;
      pfuncs;
      fidx;
      mem;
      ps;
      cfg;
      cov = cfg.coverage;
      compiled;
      binding = (match binding with Some b -> b | None -> own);
      cost_acc;
      seq = 0;
      steps = 0;
      trace_rev = [];
      bugs_rev = [];
      output_rev = [];
      crashes_hit = 0;
      armed_crash = None;
      crash_hook = None;
      frames = [];
      stats;
    }
  and own =
    {
      cur = t;
      cur_mem = mem;
      cur_ps = ps;
      cur_acc = cost_acc;
      cur_stats = stats;
    }
  in
  t

let create ?pm_image (cfg : config) (prog : Program.t) : t =
  let funcs = Program.funcs prog in
  let fidx = Hashtbl.create 64 in
  List.iteri (fun i f -> Hashtbl.add fidx (Func.name f) i) funcs;
  let mem = new_mem ?pm_image cfg prog in
  let global_addr = Mem.global_addr mem in
  let pfuncs =
    Array.of_list (List.map (Prep.prepare_func ~fidx ~global_addr) funcs)
  in
  let compiled = Array.make (Array.length pfuncs) None in
  assemble ~prog ~cfg ~pfuncs ~fidx ~compiled mem

(* The prepared and the compiled code are shared: both are functions of
   the program and config alone. The global layout the prepared code
   resolved addresses against depends on nothing else, and compiled
   closures reach the machine they run on through the shared binding.
   The machines of one chain therefore run on one domain at a time: a
   sim scenario is one pool task, and no other caller restarts. *)
let restart ~pm_image t =
  let mem = new_mem ~pm_image ~pm_brk:(Mem.pm_brk t.mem) t.cfg t.prog in
  assemble ~prog:t.prog ~cfg:t.cfg ~pfuncs:t.pfuncs ~fidx:t.fidx
    ~compiled:t.compiled ~binding:t.binding mem

let mem t = t.mem
let set_crash_hook t f = t.crash_hook <- Some f

(** [arm_crash t ~at] schedules a {!Stopped_at_crash} at the [at]-th
    explicit crash point (absolute, 1-based, compared against
    {!crash_points_hit}); [disarm_crash] cancels it. It is the one way
    to stop a run at a crash point, and it is mutable on a live machine,
    so a fault injector can arm crash [k] for one workload call and
    disarm (or re-arm) for the next — identically in both tiers. *)
let arm_crash t ~at = t.armed_crash <- Some at
let disarm_crash t = t.armed_crash <- None

(** Explicit crash points passed so far — maintained whether or not the
    trace is recorded, so callers can count crash points without
    materializing a trace. *)
let crash_points_hit t = t.crashes_hit

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let push_event t ev = if t.cfg.trace then t.trace_rev <- ev :: t.trace_rev

let classify_arg v : Trace.arg_class =
  if Layout.is_pm v then Trace.Pm_ptr
  else if Layout.is_volatile_ptr v then Trace.Vol_ptr
  else Trace.Not_ptr

let record_crash_point t ~iid ~loc =
  t.crashes_hit <- t.crashes_hit + 1;
  let crash : Report.crash_info =
    { crash_iid = iid; crash_loc = loc; crash_stack = t.frames }
  in
  (* The seq counter advances at crash points whether or not the trace is
     recorded: store seqs embedded in bug reports must not depend on the
     trace flag. Only the event construction is gated. *)
  let seq = next_seq t in
  if t.cfg.trace then
    push_event t (Trace.Crash_point { iid; loc; stack = t.frames; seq });
  let bugs = Pstate.unpersisted_bugs t.ps ~crash in
  t.bugs_rev <- List.rev_append bugs t.bugs_rev;
  (match t.crash_hook with Some f -> f () | None -> ());
  match t.armed_crash with
  | Some n when t.crashes_hit >= n -> raise Stopped_at_crash
  | _ -> ()

(** [exit_check t] performs the implicit crash point at program exit:
    pmemcheck's "number of stores not made persistent" summary. *)
let exit_check t =
  let crash : Report.crash_info =
    {
      crash_iid = None;
      crash_loc = Loc.make ~file:"<exit>" ~line:0;
      crash_stack = [];
    }
  in
  let bugs = Pstate.unpersisted_bugs t.ps ~crash in
  t.bugs_rev <- List.rev_append bugs t.bugs_rev;
  let seq = next_seq t in
  if t.cfg.trace then
    push_event t
      (Trace.Crash_point { iid = None; loc = crash.crash_loc; stack = []; seq })

(* A run stopped at a crash point never reaches program exit: the
   program may be mid-transaction, and an exit check would report stores
   it had no chance to persist yet. *)
let run_workload t workload =
  match workload t with
  | () -> exit_check t
  | exception Stopped_at_crash -> ()

let trace t = List.rev t.trace_rev
let site_stats t = t.stats
let bugs t = Report.dedup (List.rev t.bugs_rev)
let raw_bugs t = List.rev t.bugs_rev
let output t = List.rev t.output_rev
let cost_ns t = t.cost_acc.fv
let steps t = t.steps
let pstate t = t.ps
let crash_image t = Mem.crash_image t.mem
let global_addr t name = Mem.global_addr t.mem name
