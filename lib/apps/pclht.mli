(** P-CLHT: a persistent cache-line hash table after RECIPE's P-CLHT
    (Lee et al., SOSP'19), the research-prototype subject of §6.1.

    Each bucket is one cache line (three key/value slot pairs + an
    overflow link); the persistence discipline is line-granular
    flush+fence with explicit durability points ([crash]) at operation
    boundaries. Two previously-undocumented bugs are injected, matching
    the paper's findings: a missing flush on the value-update path and a
    missing fence on the overflow-link path.

    IR functions: [clht_init nbuckets], [clht_put key value] (1 = insert,
    2 = update), [clht_get key], [clht_del key], [clht_check],
    [clht_recover_check] (rebinds the root from [pm_base] after a crash,
    then checks). Keys and values are nonzero machine words. *)

open Hippo_pmir
open Hippo_pmcheck

val build : unit -> Program.t

(** An interpreter with an initialized table; the {!App} adapter drives
    it with string keys mapped onto CLHT's nonzero-word domain. *)
type session = { interp : Interp.t; hdr_addr : int }

(** Initialize the table on an existing interpreter. *)
val attach : ?nbuckets:int -> Interp.t -> session

val start : ?config:Interp.config -> ?nbuckets:int -> Program.t -> session

(** Rebind the table root on an interpreter restarted over a crash image
    ([Machine.restart ~pm_image]; [clht_recover_check] re-derives the
    header from [pm_base]). *)
val recover_attach : Interp.t -> session

(** The table's size field, read host-side (CLHT has no size query). *)
val count : session -> int

(** Run [clht_check]: the walk agrees with the stored size. *)
val check : session -> bool

(** The example workload from RECIPE's evaluation: insertion, update,
    lookup and deletion traffic, with chains forced through overflow. *)
val workload : Interp.t -> unit

(** Injected-bug ground truth for the corpus harness (both cases share the
    program). *)
val cases : Hippo_pmdk_mini.Case.t list
