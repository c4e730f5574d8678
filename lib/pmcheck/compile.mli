(** The compiled execution tier: closure-threaded PMIR, and the tier
    every production caller runs.

    Prepared basic blocks become chains of OCaml closures — operand
    shapes, access sizes and the trace/coverage/cost/image hooks are
    specialized when the closure is built (binops in their two common
    shapes, register-register and register-immediate; every other binop
    shape shares one generic closure), registers live in a preallocated
    [int array], and branch targets are pre-resolved block slots. Functions compile lazily, once per restart chain: a machine
    and every machine {!Machine.restart} boots from it share one table
    of compiled functions, whose closures reach the machine they run on
    through the chain's {!Machine.binding}.

    The contract with {!Interp} is bit-identical observables: trace
    events (including seq numbers), bugs, output, [cost_ns], coverage,
    crash images and crash-point counts. [steps] agrees on every normal,
    out-of-fuel, aborted and stopped-at-crash path (it may overshoot by a
    segment tail only when a {!Mem.Trap} aborts the run). *)

(** [call t name args] invokes a function from the host through the
    compiled tier. Same exceptions and accumulation semantics as
    {!Interp.call}. It points [t]'s binding at [t] for the run; a call
    made from inside a sibling's run hands the binding back when it
    returns. *)
val call : Machine.t -> string -> int list -> int

(** One-shot convenience mirroring {!Interp.run}: run [entry] with [args]
    through the compiled tier, then the exit check. *)
val run :
  ?pm_image:Bytes.t ->
  ?config:Machine.config ->
  Hippo_pmir.Program.t ->
  entry:string ->
  args:int list ->
  Machine.t * (int, [ `Aborted | `Out_of_fuel ]) result
