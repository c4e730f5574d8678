(** Versioned analysis cache.

    The repair pipeline's analyses — Andersen points-to, the Full-AA alias
    oracle, static durability summaries, program size — are pure
    functions of the program. Rebuilding them for every pipeline run is
    the dominant cost of ablation sweeps (the same program repaired
    under several configurations) and of re-verification (the static
    residual check after repair). The cache memoizes them per {e program
    version}: a monotonic counter where version 0 is the first program
    registered and the [apply] stage bumps the counter when it produces a
    repaired program. Analyses of a version that did not change are
    never recomputed; registering a new version never invalidates older
    ones, so a sweep that always starts from the original program keeps
    hitting version 0's entries.

    Programs are immutable, so a version is keyed by physical equality
    on the program value: looking up a program already registered
    returns its existing version, anything else registers a fresh one.

    The [andersen_runs] counter exposes how many times the points-to
    analysis actually executed — the observable that lets tests prove an
    ablation sweep computed it exactly once. *)

open Hippo_pmir

type t

val create : unit -> t

(** One registered program version. *)
type view

(** [view t prog] is the version bound to [prog]: the existing one when
    [prog] is already registered (physical equality), otherwise a fresh
    version with a bumped counter. *)
val view : t -> Program.t -> view

val version : view -> int
val program : view -> Program.t

(** Number of registered versions (= final counter value + 1). *)
val versions : t -> int

(* ---- memoized analyses ------------------------------------------- *)

val size : view -> int
val andersen : view -> Hippo_alias.Andersen.t

(** The Full-AA oracle over {!andersen}. *)
val oracle : view -> Hippo_alias.Oracle.t

(** Static durability check, memoized per entry-point list. *)
val static_check :
  ?entries:string list -> view -> Hippo_staticcheck.Checker.result

(** Like {!static_check} but always executes the checker so the
    [observe] hook fires over the converged abstract states (see
    {!Hippo_staticcheck.Checker.check}); reuses the cached Andersen
    result and feeds the static memo, so a later plain {!static_check}
    with the same entries is a hit. *)
val static_observed :
  ?entries:string list ->
  view ->
  observe:
    (func:string ->
    Hippo_staticcheck.Absmem.t ->
    Hippo_pmir.Instr.t ->
    unit) ->
  Hippo_staticcheck.Checker.result

(* ---- instrumentation --------------------------------------------- *)

(** How many times the Andersen analysis actually ran (cache misses). *)
val andersen_runs : t -> int
