(** The PMIR reference interpreter: the differential oracle of
    {!Compile}.

    Plays the role pmemcheck plays for the original system: it executes
    the program under test, records a PM-operation trace (stores, flushes,
    fences, calls — each with its call stack), and reports every store
    that is not durable when a crash point or program exit is reached.
    All of that state lives in the {!Machine}; this module is only the
    loop that walks the prepared code ({!Prep}).

    Production code executes through {!Compile}, which is bit-identical
    on every observable and faster; this interpreter is kept as the
    reference it is checked against. A typical bug-finding session
    therefore names only {!Machine} and {!Compile}:
    {[
      let t = Machine.create Machine.default_config prog in
      ignore (Compile.call t "main" []);
      Machine.exit_check t;
      let bugs = Machine.bugs t in
      ...
    ]}
    and a test that checks the compiled tier runs the same machine state
    through {!call} or {!run}. *)

open Hippo_pmir

(** [call t name args] invokes a function from the host (as a test driver
    invokes the program under valgrind) through the interpreter: the
    oracle [test/test_exec.ml] compares {!Compile.call} against.
    Persistency state, trace and detected bugs accumulate across calls.
    Raises {!Mem.Trap}, {!Machine.Aborted}, {!Machine.Out_of_fuel} or
    {!Machine.Stopped_at_crash}. *)
val call : Machine.t -> string -> int list -> int

(** One-shot convenience: run [entry] with [args] under the interpreter,
    then the exit check — the oracle for {!Compile.run}. *)
val run :
  ?pm_image:Bytes.t ->
  ?config:Machine.config ->
  Program.t ->
  entry:string ->
  args:int list ->
  Machine.t * (int, [ `Aborted | `Out_of_fuel ]) result

(** {2 Pinned aliases of {!Machine}}

    These ten names are {!Machine}'s, re-exported. They stay because
    perfsuite/ compiles against [Interp.config] (with its labels),
    [default_config], [t], [create], [Stopped_at_crash], [exit_check],
    [bugs], [cost_ns], [steps] and [pstate]; they go with the change
    that moves perfsuite to {!Machine}. Nothing else names them. *)

exception Stopped_at_crash

type config = Machine.config = {
  trace : bool;
  fuel : int;
  cost : Cost.t option;
  track_images : bool;
  coverage : Coverage.t option;
  vol_size : int;
  stack_size : int;
  global_size : int;
  pm_size : int;
}

val default_config : config

type t = Machine.t

val create : ?pm_image:Bytes.t -> config -> Program.t -> t
val exit_check : t -> unit
val bugs : t -> Report.bug list
val cost_ns : t -> float
val steps : t -> int
val pstate : t -> Pstate.t
