(** Domain-parallel corpus sweeps: one repair (or any per-case
    computation) per pool task, with analysis-cache sharing that stays
    safe under parallelism.

    The PR 2 analysis {!Hippo_engine.Cache.t} is single-domain mutable
    state; sharing one instance across worker domains would race. The
    sweep therefore gives every worker domain its {e own} cache
    (domain-local storage, created on first use) and, after all tasks
    settle, folds the per-domain counters into one aggregate cache —
    read-only merging, for reporting only ({!Hippo_engine.Cache.merge_stats}).

    Determinism: case programs are forced {e serially} before fan-out (so
    instruction-identity allocation does not depend on scheduling), tasks
    are pure per-case computations, and results come back in submission
    order — a sweep at any [~jobs] prints byte-identically to [~jobs:1]. *)

open Hippo_pmdk_mini
open Hippo_core

(** [sweep ?jobs ~f cases] runs [f ~cache case] for every case across a
    [jobs]-wide domain pool (default 1 — fully serial, no domains
    spawned). [cache] is the calling domain's private analysis cache:
    tasks that land on the same domain share it. Returns the per-case
    results in corpus order plus the aggregate cache (merged counters of
    every per-domain cache). *)
val sweep :
  ?jobs:int ->
  f:(cache:Hippo_engine.Cache.t -> Case.t -> 'a) ->
  Case.t list ->
  'a list * Hippo_engine.Cache.t

(** [corpus ?options ?jobs cases] repairs every case (the standard
    end-to-end sweep: each task runs the full locate→…→verify pipeline on
    its case's own program and workload). *)
val corpus :
  ?options:Driver.options ->
  ?jobs:int ->
  Case.t list ->
  (Case.t * Driver.result) list * Hippo_engine.Cache.t

(** One crash-sweep subject: a program plus the workload and recovery
    checker that define its crash scenarios. *)
type crash_subject = {
  cs_id : string;
  cs_program : Hippo_pmir.Program.t Lazy.t;
  cs_setup : (string * int list) list;
  cs_checker : string;
  cs_checker_args : int list;
}

(** [crash_corpus ?jobs subjects] crash-sweeps every subject across a
    domain pool, one subject per task, mirroring {!sweep}'s cache story
    with {!Hippo_pmcheck.Crashsim.Memo} tables: every worker domain
    memoizes recovery verdicts into its own table (created on first use),
    and the per-domain counters are folded into the returned aggregate —
    read-only, reporting only. Verdict lists never depend on memo
    contents, so results are byte-identical at any [jobs]. *)
val crash_corpus :
  ?config:Hippo_pmcheck.Interp.config ->
  ?jobs:int ->
  crash_subject list ->
  (crash_subject
  * Hippo_pmcheck.Crashsim.verdict list
  * Hippo_pmcheck.Crashsim.stats)
  list
  * Hippo_pmcheck.Crashsim.Memo.t
