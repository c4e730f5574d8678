(** memcached_mini: a PM-backed slab cache after Lenovo's memcached-pm,
    the third subject of §6.1, with the paper's population of 10
    previously-undocumented durability bugs injected in the SET path (key
    and value copies through the shared [memcpy], length fields, hash and
    LRU linkage, the item count and the sets statistic), while DELETE,
    TOUCH and the flags/cas/exptime updates follow the correct
    [pmem_persist] discipline.

    IR commands (over wire-buffer globals): [cmd_set], [cmd_get],
    [cmd_del], [cmd_touch exptime], [cmd_count], [mc_recover_check]. *)

open Hippo_pmir
open Hippo_pmcheck

val build : unit -> Program.t

type session = {
  machine : Machine.t;
  key_buf : int;
  val_buf : int;
  g_klen : int;
  g_vlen : int;
  g_flags : int;
}

val attach : ?nbuckets:int -> Machine.t -> session
val set_key : session -> string -> unit
val op_set : session -> key:string -> value:string -> flags:int -> unit

(** Returns the value length or -1. *)
val op_get : session -> key:string -> int

val op_del : session -> key:string -> int

(** The repair/bug-finding workload: sets (fresh and replacing), gets,
    touches and deletes, ending with a burst of sets. *)
val workload : Machine.t -> unit

(** The ten injected omissions as corpus ground truth (all share the
    program). *)
val cases : Hippo_pmdk_mini.Case.t list
