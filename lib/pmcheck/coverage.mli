(** Cheap edge-coverage bitmaps for the PMIR interpreter.

    The fuzzing subsystem ({!Hippo_fuzz}) steers mutation by the control
    edges an execution exercises. An edge is a [(function, block,
    successor)] triple — the successor of a branch, the taken arm of a
    conditional, the callee of a call, or the pseudo-successors
    ["!crash"] at a crash point — hashed into a fixed-size bitmap by a
    {e stable} string hash (FNV-1a), so the same program shape maps to
    the same indices in every run and across processes.

    Keying edges by names rather than positions makes the map meaningful
    {e across} programs: two mutants that share a block/callee name share
    its edges, while a mutation that introduces a fresh block or helper
    function contributes genuinely new indices. Hash collisions merely
    merge two edges (AFL-style) and cost precision, never soundness.

    Enabled by passing a map in {!Machine.config}[.coverage]; when absent
    the interpreter's hot loop only tests one immutable field per branch
    (the "zero cost when disabled" contract). Maps are not domain-safe:
    use one per worker and {!merge} the results. *)

type t

(** Number of bitmap slots ([2^16]); edge indices are in [0, map_size). *)
val map_size : int

val create : unit -> t

(** Clear every bit (reuse between runs). *)
val reset : t -> unit

(** [edge ~func ~block ~dest] is the stable bitmap index of a CFG edge.
    Computed once at program-preparation time, never in the hot loop. *)
val edge : func:string -> block:string -> dest:string -> int

(** [mark t i] sets bit [i]. O(1); called from the interpreter. *)
val mark : t -> int -> unit

val mem : t -> int -> bool

(** Number of distinct bits set. O(1). *)
val count : t -> int

(** Set bits in ascending index order. *)
val to_list : t -> int list

(** [merge ~into t] ors [t] into [into]; returns how many bits were new
    to [into]. *)
val merge : into:t -> t -> int

(** [add ~into is] marks the listed bits; returns how many were new. *)
val add : into:t -> int list -> int
