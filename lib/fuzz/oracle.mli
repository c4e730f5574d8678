(** Differential oracles: what it means for a fuzz candidate to "fail".

    Every candidate is executed once for coverage and dynamic bug
    reports, then cross-checked against independent implementations of
    the same judgement:

    - [static_dynamic] — every dynamic bug site must be covered by a
      static report (the repo-wide soundness property: the static
      analysis may over-approximate, never miss);
    - [repair_roundtrip] — when the detector finds bugs, the repair
      pipeline must fix them all ({e effective}) without changing the
      program's observable behaviour ({e harm-free});
    - [sweep_differential] — the single-pass crash sweep and the O(n²)
      replay sweep must produce identical verdict lists;
    - [crash_harm] — every crash point that was fully consistent before
      the repair (all post-crash images recover) must stay consistent
      after it — "do no harm" in crash-consistency terms. Points that
      were already inconsistent are exempt: a durability repair
      legitimately shifts which images occur and cannot be asked to fix
      a pre-existing atomicity bug.

    The last two only run on crash-family programs (those defining
    {!Gen.checker_name} and passing a crash point). Any exception
    escaping the pipeline is itself reported as a [pipeline_exception]
    violation — the fuzzer treats an engine crash as a found bug, not an
    infrastructure error. *)

open Hippo_pmir

type violation = {
  oracle : string;  (** oracle identifier, e.g. ["static_dynamic"] *)
  detail : string;  (** human-readable transcript for the reproducer *)
}

type outcome = {
  edges : int list;  (** coverage-map indices the execution marked *)
  verdict : string;
      (** small-alphabet behaviour bucket (bug counts, crash consistency)
          — the corpus retains candidates showing a verdict it has not
          seen, even without new coverage *)
  violations : violation list;
  memo_hits : int;  (** recovery-memo hits this candidate's sweeps made *)
  memo_misses : int;
}

(** Interpreter configuration for fuzz executions: small memories (the
    generated programs touch a few hundred bytes, and the segment sizes
    fix where an overrunning program traps, so fuzz verdicts depend on
    them). *)
val interp_config : Hippo_pmcheck.Interp.config

(** Run every applicable oracle on one candidate. *)
val evaluate : Program.t -> outcome

(** Coverage-only execution (the blind-generation baseline): run [main],
    return the marked edges, skip all oracles. *)
val coverage_edges : Program.t -> int list

(** [hot_blocks p edges] recovers the (func, block) pairs observed to
    execute from a marked edge set, by re-hashing every potential edge of
    [p] and testing membership. Collisions can only add blocks — the
    result is a biasing hint for the mutators, not ground truth. *)
val hot_blocks : Program.t -> int list -> (string * string) list

(** [fails ~oracle p] re-evaluates [p] and reports whether the named
    oracle still finds a violation — the shrinker's predicate. *)
val fails : oracle:string -> Program.t -> bool
