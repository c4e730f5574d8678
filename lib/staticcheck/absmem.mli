(** Abstract machine state of the static durability checker.

    Two layers share one abstract-location space (the Andersen abstract
    objects of {!Hippo_alias.Andersen}):

    - a coarse per-location {!Lattice} value ([locs]) — the summary the
      fixpoint converges on;
    - fine-grained {e store records} ([mem]) — one per (location, store
      instruction, static call chain) still undurable, carrying everything
      a {!Hippo_pmcheck.Report.bug} needs: the store's identity, source
      location, width, the witness path, which flush covered it, and
      whether a fence is guaranteed after it.

    On top sits a flow-sensitive symbolic register environment ([env])
    that recovers byte offsets (and hence cache lines) lost by the
    field-insensitive points-to analysis: [pm_alloc]/[alloca]/[malloc]
    results are offset 0 of their site's object, and [gep]/[add]/[and]
    propagate constant offsets. A flush whose line provably differs from a
    store's line does not discharge it. *)

open Hippo_pmir
open Hippo_pmcheck
module ISet = Hippo_alias.Andersen.ISet

(** Symbolic register values. [Ptr] carries a refined points-to set
    (usually a singleton, bound at call entry from the actual argument)
    and a byte offset from the object base when statically known. *)
type sym =
  | Ptr of { oids : ISet.t; off : int option }
  | Addr of int  (** concrete (immediate) address *)
  | Int of int  (** known integer constant *)
  | Unknown

val sym_equal : sym -> sym -> bool
val sym_join : sym -> sym -> sym
val pp_sym : Format.formatter -> sym -> unit

type srec = {
  store_iid : Iid.t;
  store_loc : Loc.t;
  size : int;
  chain : Trace.stack;  (** witness path, innermost first; the outermost
                            frame's [callsite] is [None] until the
                            enclosing summary is applied at a call site *)
  line : int option;  (** cache-line index within the object, if known *)
  pstate : Lattice.t;  (** [Dirty], [Flush_pending] or [Top] *)
  fence_after : bool;  (** a fence executes on {e every} path since the
                           store — the static mirror of pmemcheck's
                           "later fence" that downgrades missing-flush&fence
                           to missing-flush *)
  flushed_by : Iid.t option;
}

(** Records are keyed by (object, store instruction, call-chain sites):
    the same identity {!Hippo_pmcheck.Report.same_static_bug} uses. *)
module Key : sig
  type t = { oid : int; iid : Iid.t; sites : (string * int option) list }

  val compare : t -> t -> int
end

module KMap : Map.S with type key = Key.t
module Env : Map.S with type key = string

(** A chain's identity: its (function, callsite serial) pairs — the same
    projection {!Hippo_pmcheck.Report.same_static_bug} compares. *)
val chain_sites : Trace.stack -> (string * int option) list

val key_of : oid:int -> iid:Iid.t -> chain:Trace.stack -> Key.t

type t = {
  env : sym Env.t;
  locs : Lattice.t KMap.t;
      (** coarse per-location state; keyed with the record key's [oid]
          only (iid/sites empty) *)
  mem : srec KMap.t;
}

val empty : t

(** Drop the register environment (crossing a function boundary). *)
val forget_env : t -> t

val lookup : t -> string -> sym
val bind : t -> string -> sym -> t

val set_loc : t -> int -> Lattice.t -> t

val join : t -> t -> t
val equal : t -> t -> bool

(** Live (undurable) records, innermost key order. *)
val records : t -> (Key.t * srec) list

val pp : Format.formatter -> t -> unit
