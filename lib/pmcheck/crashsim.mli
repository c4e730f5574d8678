(** Crash simulation: demonstrates that reported durability bugs are real
    (some crash leaves the application unrecoverable) and that repaired
    programs are crash consistent.

    A scenario runs a workload, stops it at its [n]-th crash point, takes
    the durable PM image, restarts the program on that image and runs a
    recovery checker function (returning nonzero when the recovered state
    satisfies the application's invariant; a checker that traps, aborts
    or runs out of fuel has not recovered).

    Two images are checked per crash point: the pessimistic image (only
    explicitly persisted data survived) and the lucky image (every cached
    line happened to be evicted before the crash — the case that makes
    durability bugs so hard to observe in testing). A bug is
    {e demonstrated} when the lucky image recovers but the pessimistic one
    does not.

    {!sweep} runs the workload once with image tracking on, captures a
    fingerprint pair per crash point plus an O(touched-bytes) trimmed
    copy of each {e distinct} image, and runs recovery once per
    distinct image not already in the memo table — O(workload +
    k·recovery) for [k] distinct images. {!replay_sweep} re-executes the
    workload prefix per crash point (O(n²)) and is the reference the
    single-pass sweep is tested against. Both produce byte-identical
    verdict lists at every [jobs] setting. Dedup is sound because
    recovery is a pure function of the crash image (DESIGN.md §7b). *)

type verdict = {
  crash_index : int;
  pessimistic_ok : bool;  (** recovery succeeded on the durable image *)
  lucky_ok : bool;  (** recovery succeeded on the working image *)
}

(** Recovery succeeded on the pessimistic image. A program is crash
    consistent for a workload when every verdict of its {!sweep} is. *)
val consistent : verdict -> bool

type stats = {
  crash_points : int;
  distinct_pessimistic : int;  (** distinct durable images over the sweep *)
  distinct_lucky : int;  (** distinct working images over the sweep *)
  distinct_images : int;  (** distinct images overall (the two can meet) *)
  recovery_runs : int;  (** checker executions actually performed *)
  memo_hits : int;  (** image checks answered without running recovery *)
}

(** Memoized recovery verdicts keyed by (program, checker, checker args,
    image fingerprint). Pass one table to several single-pass sweeps —
    e.g. the original and repaired program in the fuzz oracle's
    repair-harm check — and repeated durable images cost nothing. Reuse
    assumes the sweeps share a machine config. Not domain-safe:
    share it within one domain. *)
module Memo : sig
  type t

  val create : unit -> t
  val hits : t -> int
  val misses : t -> int
end

(** [check_crash prog ~setup ~checker ~checker_args ~crash_index] runs the
    host-call list [setup], stopping at the given crash point, then
    recovers both images with [checker]. Raises [Invalid_argument] when
    the workload has fewer crash points. This is the {!replay_sweep}
    primitive. *)
val check_crash :
  ?config:Machine.config ->
  Hippo_pmir.Program.t ->
  setup:(string * int list) list ->
  checker:string ->
  checker_args:int list ->
  crash_index:int ->
  verdict

(** Count the crash points a workload passes through — one uninstrumented
    run reading the machine's crash-point counter; no trace is built. *)
val count_crash_points :
  ?config:Machine.config ->
  Hippo_pmir.Program.t ->
  setup:(string * int list) list ->
  int

(** Digest of the printed program — the program component of memo keys. *)
val program_sig : Hippo_pmir.Program.t -> string

(** The reference sweep: {!check_crash} at every crash point, in
    crash-point order, with whole scenarios fanned out over a [jobs]-wide
    domain pool. O(n²) work and no dedup. Kept for differential testing
    of {!sweep_with_stats}. *)
val replay_sweep :
  ?config:Machine.config ->
  jobs:int ->
  Hippo_pmir.Program.t ->
  setup:(string * int list) list ->
  checker:string ->
  checker_args:int list ->
  verdict list

(** Check every crash point of the workload in a single pass, in
    crash-point order, and report dedup statistics alongside the
    verdicts. [jobs > 1] (default 1) fans recovery runs out over a domain
    pool; submission-order collection keeps the verdict list identical to
    the serial sweep. [memo] carries recovery verdicts across sweeps;
    omitted, each sweep memoizes privately (within-sweep dedup still
    applies). [memo_sig] overrides the program component of the memo
    key; pass one signature for two programs only when their checkers are
    known equivalent on every image (original vs harm-free repair, as the
    fuzz oracle's repair-harm check does). *)
val sweep_with_stats :
  ?config:Machine.config ->
  ?jobs:int ->
  ?memo:Memo.t ->
  ?memo_sig:string ->
  Hippo_pmir.Program.t ->
  setup:(string * int list) list ->
  checker:string ->
  checker_args:int list ->
  verdict list * stats

(** {!sweep_with_stats} without the statistics, under the default
    machine config and a private memo table. *)
val sweep :
  ?jobs:int ->
  Hippo_pmir.Program.t ->
  setup:(string * int list) list ->
  checker:string ->
  checker_args:int list ->
  verdict list
