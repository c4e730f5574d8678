(** The per-abstract-location persistency lattice of the static checker.

    Ordered by "how durable do we know the location to be":

    {[ Bot  ⊑  Persisted  ⊑  Flush_pending  ⊑  Dirty  ⊑  Top ]}

    [Bot] — never stored to on any path reaching this point; [Persisted] —
    every PM update of the location is covered by an [X -> F(X) -> M]
    chain; [Flush_pending] — covered by a weakly-ordered flush that no
    fence has ordered yet (missing-fence if still pending at a crash
    point); [Dirty] — some update may still sit in the CPU cache
    (missing-flush / missing-flush&fence); [Top] — unknown, e.g. after a
    recursive call the analysis refuses to model precisely. Join moves
    {e up} (toward less durable): merging a clean path with a dirty path
    must keep the bug. This is the static mirror of the dynamic
    {!Hippo_pmcheck.Pstate} machine's per-record [Dirty]/[Pending]
    states. *)

type t = Bot | Persisted | Flush_pending | Dirty | Top


(** Height in the chain, [Bot] = 0 … [Top] = 4. *)
val rank : t -> int

val leq : t -> t -> bool
val join : t -> t -> t
val equal : t -> t -> bool

(** A location in this state can still hold an unpersisted update. *)
val undurable : t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit
