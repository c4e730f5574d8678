(** PM operation traces.

    The contract between bug finder and repair tool (paper §4.1): every
    event carries the instruction identity, the source location, and the
    call stack at the time of the event. pmemcheck produces exactly this;
    Hippocrates consumes it to locate bugs in the IR and to compute
    interprocedural fix candidates.

    Serialization is line-oriented (';'-separated fields, stacks
    '<'-separated innermost-first), one event per line through
    {!to_line}/{!of_line}; {!Tracefile} assembles whole trace files. *)

open Hippo_pmir

type frame = {
  func : string;
  callsite : Iid.t option;
      (** the call instruction, in the caller, that created this frame;
          [None] for the host-invoked entry frame *)
  callsite_loc : Loc.t option;
}

type stack = frame list
(** innermost frame first *)

type arg_class = Pm_ptr | Vol_ptr | Not_ptr

type event =
  | Store of {
      iid : Iid.t;
      loc : Loc.t;
      stack : stack;
      addr : int;
      size : int;
      nontemporal : bool;
      seq : int;
    }
  | Flush of {
      iid : Iid.t;
      loc : Loc.t;
      stack : stack;
      kind : Instr.flush_kind;
      line_addr : int;
      seq : int;
    }
  | Fence of {
      iid : Iid.t;
      loc : Loc.t;
      stack : stack;
      kind : Instr.fence_kind;
      seq : int;
    }
  | Call of {
      iid : Iid.t;
      loc : Loc.t;
      stack : stack;
      callee : string;
      arg_classes : arg_class list;
      seq : int;
    }
  | Crash_point of { iid : Iid.t option; loc : Loc.t; stack : stack; seq : int }
      (** [iid = None] denotes the implicit crash point at program exit *)

val seq : event -> int
val stack_of : event -> stack

val frame_to_string : frame -> string
val stack_to_string : stack -> string
val arg_class_to_string : arg_class -> string
val arg_class_of_string : string -> arg_class option
val to_line : event -> string

exception Bad_trace of string

val bad : ('a, Format.formatter, unit, 'b) format4 -> 'a

(* Field parsers shared with {!Report} and {!Sitestats}. *)
val parse_iid : string -> Iid.t
val parse_loc : string -> Loc.t
val parse_frame : string -> frame
val parse_stack : string -> stack
val parse_int : string -> int
val parse_bool : string -> bool

val of_line : string -> event
