(** A PMIR program: an ordered collection of functions plus global byte
    buffers. Globals live in volatile memory (the interpreter assigns them
    addresses at startup); persistent memory is obtained dynamically
    through the [pm_alloc] intrinsic, mirroring how PMDK pools are
    mapped. *)

type t

val empty : t

(** [add_func t f] appends (or replaces, keeping position) a function. *)
val add_func : t -> Func.t -> t

val add_global : t -> name:string -> size:int -> t
val of_funcs : Func.t list -> t
val find : t -> string -> Func.t option

(** Raises [Invalid_argument] when absent. *)
val find_exn : t -> string -> Func.t

val mem : t -> string -> bool

(** Functions in definition order. *)
val funcs : t -> Func.t list

val globals : t -> (string * int) list
val func_names : t -> string list

(** [update t f] replaces the function of the same name; raises
    [Invalid_argument] if it does not exist. *)
val update : t -> Func.t -> t

val map_funcs : (Func.t -> Func.t) -> t -> t

(** [find_instr t iid] locates an instruction program-wide. *)
val find_instr : t -> Iid.t -> Instr.t option

(** Total instruction count — the "lines of IR" metric used for the
    code-size experiments (§6.4). *)
val size : t -> int

val equal_modulo_iid : t -> t -> bool

(** Intrinsic functions understood directly by the machine (they have no
    PMIR body), each with the number of arguments it takes: [pm_alloc],
    [malloc], [free] and [emit] take one; [pm_base], [pm_size] and
    [abort] take none. *)
val intrinsics : (string * int) list

val is_intrinsic : string -> bool
