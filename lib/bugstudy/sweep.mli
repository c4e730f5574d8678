(** Domain-parallel corpus sweeps: one repair per pool task, with
    analysis-cache sharing that stays safe under parallelism.

    An {!Hippo_engine.Cache.t} is single-domain mutable state; sharing
    one instance across worker domains would race. The sweep therefore
    gives every worker domain its {e own} cache (domain-local storage,
    created on first use): tasks that land on the same domain share it.

    Determinism: case programs are forced {e serially} before fan-out (so
    instruction-identity allocation does not depend on scheduling), tasks
    are pure per-case computations, and results come back in submission
    order — a sweep at any [~jobs] prints byte-identically to [~jobs:1]. *)

open Hippo_pmdk_mini
open Hippo_core

(** [corpus ?options ?jobs cases] repairs every case across a
    [jobs]-wide domain pool (default 1 — fully serial, no domains
    spawned) and returns the results in corpus order. Each task runs the
    full locate→…→verify pipeline on its case's own program and
    workload. *)
val corpus :
  ?options:Driver.options ->
  ?jobs:int ->
  Case.t list ->
  (Case.t * Driver.result) list
