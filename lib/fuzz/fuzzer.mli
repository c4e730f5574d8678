(** The coverage-guided fuzzing loop.

    Rounds of a fixed candidate count: each round builds its candidates
    serially (generation for the seed round, corpus mutation afterwards
    — every candidate's RNG is {!Hippo_parallel.Stream.state}[ ~seed
    [namespace; round; slot]]), evaluates them across the
    {!Hippo_parallel.Pool} domain pool, then merges outcomes into the
    corpus serially in slot order. Because candidate construction, RNG
    streams and merging are all independent of scheduling, a run is
    byte-identical at any [--jobs] width for a given [--seed]
    (exec-bounded runs; a wall-clock budget necessarily makes the round
    count timing-dependent).

    After the guided loop an equal number of coverage-blind generated
    programs is executed (namespace 1) as the baseline the summary
    compares cumulative coverage against, and every oracle violation is
    shrunk ({!Shrink}) to a 1-minimal reproducer. *)

open Hippo_pmir

type config = {
  seed : int;
  jobs : int;
  max_execs : int;  (** guided executions; the blind baseline adds as many *)
  max_time : float;  (** wall-clock budget in seconds; [0.] = unlimited *)
  corpus_dir : string option;  (** save corpus + reproducers here *)
}

val default_config : config

type found = {
  f_oracle : string;
  f_detail : string;
  f_original : Program.t;
  f_shrunk : Program.t;
}

type summary = {
  execs : int;
  gen_count : int;  (** candidates that came straight from the generator *)
  mutant_count : int;  (** candidates produced by {!Mutate} *)
  corpus_size : int;
  corpus_digest : string;
  edges : int;  (** cumulative guided coverage *)
  blind_edges : int;  (** cumulative coverage of the blind baseline *)
  memo_hits : int;  (** recovery-memo hits across all crash sweeps *)
  memo_misses : int;
  found : found list;
}

val run : config -> summary

(** Deliberately free of wall-clock fields and of the [jobs] width: the
    printed summary is part of the determinism contract. *)
val pp_summary : Format.formatter -> summary -> unit
