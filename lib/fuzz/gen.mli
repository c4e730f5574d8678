(** Randomized well-typed PMIR generator (the fuzzer's seed source).

    One generator serves the fuzzer, the qcheck suites and the
    benchmarks, so all of them exercise one program family. Programs mix
    PM stores, flushes, fences, volatile traffic, interprocedural
    persist helpers and data-dependent branches ([S_guard]).

    Three families:
    - {!arb_bug_free}: every PM store is covered by a
      store → flush → fence chain before any crash point or exit, so
      both detectors must report zero bugs;
    - {!arb_mixed}: the full alphabet (bare stores, stray flushes and
      fences) — repair-pipeline inputs that may or may not harbor bugs;
    - {!arb_crash}: slot/shadow pairs with explicit crash points and an
      in-program recovery checker ({!checker_name}) — crash-sweep
      subjects. *)

open Hippo_pmir

(** Number of PM slots; each lives on its own cache line. *)
val slots : int

val slot_off : int -> int

(** Byte offset of slot [k]'s shadow copy (checker mode). *)
val shadow_off : int -> int

(** Name of the generated recovery-checker function ([check_inv]). *)
val checker_name : string

type step =
  | S_persist of int * int  (** store slot <- value; flush; fence *)
  | S_persist_helper of int * int  (** the same chain behind a call *)
  | S_batch of (int * int) list  (** stores, flush each, one fence *)
  | S_vol_store of int * int
  | S_emit of int
  | S_guard of int * int
      (** load slot, branch on its value, emit 1 or 0 — control flow with
          no durability operations (coverage-map food) *)
  | S_store_raw of int * int
      (** bare PM store: a durability bug unless a later step happens to
          persist the slot *)
  | S_flush of int
  | S_fence
  | S_pair of int * int  (** slot and shadow both written and persisted *)
  | S_half of int * int
      (** slot persisted, shadow left unflushed: the durable image breaks
          the recovery invariant *)
  | S_crash  (** explicit crash point *)

val gen_steps : step list QCheck.Gen.t
val gen_mixed_steps : step list QCheck.Gen.t
val gen_crash_steps : step list QCheck.Gen.t

(** [program_of_steps ?checker steps] builds and validates the program;
    [~checker:true] adds shadow slots and the {!checker_name} function
    (post-restart invariant: every slot equals its shadow). *)
val program_of_steps : ?checker:bool -> step list -> Program.t

val arb_bug_free : Program.t QCheck.arbitrary
val arb_mixed : Program.t QCheck.arbitrary
val arb_crash : Program.t QCheck.arbitrary

(** Seeded one-shot draws (the fuzzer's per-slot RNG streams). *)
val random_mixed : Random.State.t -> Program.t

val random_crash : Random.State.t -> Program.t

(** The program defines the recovery checker (crash family). *)
val has_checker : Program.t -> bool

(** Run [main] — the workload every generated program is driven by. *)
val workload : Hippo_pmcheck.Machine.t -> unit

(** The host-call list matching {!workload}, for crash sweeps. *)
val setup : (string * int list) list
