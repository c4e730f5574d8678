(** Andersen-style inclusion-based points-to analysis over PMIR.

    The original Hippocrates uses a whole-program Andersen analysis to
    drive its interprocedural fix heuristic (paper §4.3). This is the same
    algorithm: flow-insensitive, context-insensitive, field-insensitive,
    with one abstract object per allocation site and a single "contents"
    node per object.

    Abstract objects carry provenance: objects born at [pm_alloc] call
    sites (or [pm_base]) are persistent; [alloca] sites, [malloc] sites
    and globals are volatile. The heuristic's "PM alias" / "non-PM alias"
    counts are counts of persistent/volatile objects in a pointer's
    points-to set. *)

open Hippo_pmir

type obj = {
  oid : int;
  site :
    [ `Alloca of Iid.t
    | `Malloc of Iid.t
    | `Pm_alloc of Iid.t
    | `Pm_region
    | `Global of string ];
}

val obj_is_pm : obj -> bool

(** Constraint-graph nodes: one per (function, register), one per function
    return value, one "contents" node per abstract object. *)
type node =
  | Var of string * string  (** function, register *)
  | Retval of string
  | Contents of int  (** object id *)

module ISet : Set.S with type elt = int

type t

(** Whole-program analysis: constraint generation + worklist solving. *)
val analyze : Program.t -> t

(** The solved points-to set of a node (object ids; empty if unknown). *)
val points_to : t -> node -> ISet.t

(** All abstract objects, in oid order — the abstract-location universe of
    the static durability checker. *)
val objects : t -> obj list

val points_to_var : t -> func:string -> reg:string -> ISet.t
val obj : t -> int -> obj

(** Persistent / volatile objects in the node's points-to set — the alias
    counts of §4.3. *)
val pm_count : t -> node -> int

val vol_count : t -> node -> int

(** May the value point into persistent memory? *)
val may_be_pm : t -> func:string -> Value.t -> bool

(** Is the value a pointer at all (nonempty points-to set, or a literal
    in-range address)? *)
val is_pointer : t -> func:string -> Value.t -> bool
