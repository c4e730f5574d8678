(** Abstract transfer functions of the static durability checker.

    One function per PMIR operation class, over {!Absmem.t}. The
    persistency transitions mirror the dynamic {!Hippo_pmcheck.Pstate}
    machine exactly:

    - a store to a PM location creates a [Dirty] record ([Flush_pending]
      when non-temporal);
    - [clwb]/[clflushopt] move covered [Dirty] records to [Flush_pending]
      (remembering the flush, the future [ordering_flush] of a
      missing-fence report); [clflush] makes them durable outright;
    - a fence makes [Flush_pending] records durable and marks surviving
      [Dirty] records [fence_after] — the static counterpart of
      pmemcheck's "a fence happened later", which downgrades
      missing-flush&fence to missing-flush.

    A flush discharges a record when their objects intersect {e unless}
    both cache lines are statically known and differ. Lines come from the
    symbolic environment: PM allocations are cache-line aligned (see
    {!Hippo_pmcheck.Mem}), so a known byte offset from an object base
    determines the line. *)

open Hippo_pmir
open Hippo_pmcheck
module ISet = Hippo_alias.Andersen.ISet

type ctx = {
  aa : Hippo_alias.Andersen.t;
  prog : Program.t;
  site_oid : int Iid.Map.t;  (** allocation-site instruction -> object *)
  global_oid : (string * int) list;
  region_oid : int option;  (** the [`Pm_region] object, if any *)
}

(** Build the analysis context from a solved points-to analysis, indexing
    {!Hippo_alias.Andersen.objects} by allocation site. *)
val make_ctx : Program.t -> Hippo_alias.Andersen.t -> ctx

(** Symbolic value of an operand: environment lookup for registers
    (falling back to the register's Andersen points-to set at offset
    [None]), region-classified immediates, globals at offset 0. *)
val eval : ctx -> func:string -> Absmem.t -> Value.t -> Absmem.sym

(** [(objects, byte offset)] a symbolic value addresses, or [None] when it
    is not a pointer the analysis can resolve. *)
val sym_targets : ctx -> Absmem.sym -> (ISet.t * int option) option

(** An operand's possible target objects per the points-to analysis alone
    (no symbolic environment, no PM filter). Empty for non-pointers — but
    also for pointers Andersen cannot track, e.g. through bit-masking
    [Binop]s; {!Summary} uses emptiness to mark a mod-set opaque. *)
val value_oids_raw : ctx -> func:string -> Value.t -> ISet.t

(** Restrict an object set to persistent objects. *)
val pm_only : ctx -> ISet.t -> ISet.t

(** Transfer a non-control instruction ([Call], [Br], [Condbr], [Ret] and
    [Crash] are the {!Checker}'s business and are left untouched).
    [chain] is the witness path new store records carry. *)
val step : ctx -> func:string -> chain:Trace.stack -> Absmem.t -> Instr.t -> Absmem.t

(** The individual persistency transitions, exposed for unit tests. *)

val store :
  ctx ->
  Absmem.t ->
  iid:Iid.t ->
  loc:Loc.t ->
  size:int ->
  nontemporal:bool ->
  chain:Trace.stack ->
  Absmem.sym ->
  Absmem.t

val flush : ctx -> Absmem.t -> iid:Iid.t -> kind:Instr.flush_kind -> Absmem.sym -> Absmem.t

(** The [pmem_flush] model: discharge records over a whole [(addr, len)]
    range at once (the runtime's line loop has a zero-trip path that a
    path-insensitive fixpoint cannot exclude, so {!Checker} models ranged
    flushes instead of analysing the loop). *)
val flush_range :
  ctx ->
  Absmem.t ->
  iid:Iid.t ->
  kind:Instr.flush_kind ->
  Absmem.sym ->
  Absmem.sym ->
  Absmem.t

val fence : Absmem.t -> Absmem.t
