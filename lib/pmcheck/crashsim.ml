(** Crash simulation: demonstrates that reported durability bugs are real
    (some crash leaves the application unrecoverable) and that repaired
    programs are crash consistent.

    A scenario runs a workload, crashes it at its [n]-th crash point, takes
    the durable PM image ({!Mem.crash_image}), restarts the program on that
    image and runs a recovery checker function. The checker returns nonzero
    when the recovered state satisfies the application's invariant.

    Two images are checked per crash point: the pessimistic image (only
    explicitly persisted data survived) and the lucky image (every cached
    line happened to be evicted before the crash — the case that makes
    durability bugs so hard to observe in testing). A durability bug is
    {e demonstrated} when the lucky image recovers but the pessimistic one
    does not.

    {!sweep} is single-pass: one instrumented run of the workload
    captures both images at every crash point incrementally — the
    durable image is a mutable base the persistency machine already
    maintains, so capture is a fingerprint read plus, on a digest's
    first occurrence, an O(touched bytes) trimmed copy of the image.
    Recovery runs are deduplicated by
    image fingerprint and memoized in a {!Memo} table: [k] distinct
    images cost [k] recovery runs instead of [2n]. O(workload +
    k·recovery) total. {!replay_sweep} re-executes the workload prefix
    for each of the [n] crash points, O(n²) work; it is the reference
    the single-pass sweep is tested against.

    Dedup is sound because recovery is a pure function of the crash
    image: the recovery interpreter starts from nothing but the image
    bytes and the (fixed) program, so byte-identical images must produce
    identical verdicts (DESIGN.md §7b). *)

type verdict = {
  crash_index : int;
  pessimistic_ok : bool;  (** recovery succeeded on the durable image *)
  lucky_ok : bool;  (** recovery succeeded on the working image *)
}

let consistent v = v.pessimistic_ok

type stats = {
  crash_points : int;
  distinct_pessimistic : int;  (** distinct durable images over the sweep *)
  distinct_lucky : int;  (** distinct working images over the sweep *)
  distinct_images : int;  (** distinct images overall (the two can meet) *)
  recovery_runs : int;  (** checker executions actually performed *)
  memo_hits : int;  (** image checks answered without running recovery *)
}

(** Memoized recovery verdicts, keyed by (program, checker, checker args,
    image fingerprint) — everything the recovery run depends on. Reusable
    across sweeps (original vs repaired program); reuse assumes the
    sweeps run under one interpreter config. Sharing is read-only from
    worker domains: sweeps consult the table before fanning recovery out
    and write results back serially. *)
module Memo = struct
  type key = {
    prog_sig : string;  (** digest of the printed program *)
    checker : string;
    checker_args : int list;
    image : Imghash.digest;
  }

  type t = {
    table : (key, bool) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create () = { table = Hashtbl.create 256; hits = 0; misses = 0 }
  let hits m = m.hits
  let misses m = m.misses
end

let program_sig prog = Digest.string (Hippo_pmir.Printer.to_string prog)

(* Recovery: restart the program on a crash image and run the checker.
   Pure in the image — the basis for dedup. *)
let recover ~config prog ~checker ~checker_args image =
  let cfg =
    { config with Interp.stop_at_crash = None; trace = false; track_images = false }
  in
  let t = Interp.create ~pm_image:image cfg prog in
  match Compile.call t checker checker_args with
  | r -> r <> 0
  | exception (Mem.Trap _ | Interp.Aborted) -> false

(** [check_crash prog ~setup ~checker ~crash_index] runs [setup] (a list of
    host calls [(func, args)]) stopping at the given crash point, then
    recovers both images with [checker] (a nullary or unary function in the
    program returning nonzero on success). This is the {!replay_sweep}
    primitive: it re-executes the workload from scratch. *)
let check_crash ?(config = Interp.default_config) prog
    ~(setup : (string * int list) list) ~(checker : string)
    ~(checker_args : int list) ~crash_index : verdict =
  let cfg =
    {
      config with
      Interp.stop_at_crash = Some crash_index;
      trace = false;
      track_images = false;
    }
  in
  let t = Interp.create cfg prog in
  let stopped =
    try
      List.iter (fun (f, args) -> ignore (Compile.call t f args)) setup;
      false
    with Interp.Stopped_at_crash -> true
  in
  if not stopped then
    invalid_arg
      (Fmt.str "Crashsim.check_crash: workload reached only %d crash points"
         crash_index);
  let recover = recover ~config prog ~checker ~checker_args in
  {
    crash_index;
    pessimistic_ok = recover (Interp.crash_image t);
    lucky_ok = recover (Mem.working_image (Interp.mem t));
  }

(** Count the crash points a workload passes through — the interpreter's
    crash-point counter, no trace materialized. *)
let count_crash_points ?(config = Interp.default_config) prog
    ~(setup : (string * int list) list) =
  let cfg =
    { config with Interp.stop_at_crash = None; trace = false; track_images = false }
  in
  let t = Interp.create cfg prog in
  List.iter (fun (f, args) -> ignore (Compile.call t f args)) setup;
  Interp.crash_points_hit t

(** [replay_sweep ~jobs prog ~setup ~checker ~checker_args] is the
    reference sweep: one full replay per crash point, fanned out over the
    domain pool (each crash point is an independent scenario). *)
let replay_sweep ?config ~jobs prog ~setup ~checker ~checker_args =
  let n = count_crash_points ?config prog ~setup in
  let check k =
    check_crash ?config prog ~setup ~checker ~checker_args ~crash_index:k
  in
  let indices = List.init n (fun k -> k + 1) in
  if jobs <= 1 then List.map check indices
  else
    Hippo_parallel.Pool.run ~domains:jobs (fun pool ->
        Hippo_parallel.Pool.map pool check indices)

(* The single-pass sweep: one instrumented run captures a fingerprint
   pair per crash point and a trimmed image per *distinct* one;
   recovery runs once per distinct un-memoized image (fanned out over the
   pool in first-occurrence order, so verdict lists are byte-identical at
   every [jobs]). *)
let single_pass_sweep ?(config = Interp.default_config) ~jobs ~memo ~prog_sig
    prog ~setup ~checker ~checker_args =
  let cfg =
    { config with Interp.stop_at_crash = None; trace = false; track_images = true }
  in
  let t = Interp.create cfg prog in
  let mem = Interp.mem t in
  let points = ref [] in
  (* digest -> trimmed image, first occurrence only *)
  let images : (Imghash.digest, Bytes.t) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let capture digest take =
    if not (Hashtbl.mem images digest) then begin
      Hashtbl.add images digest (take mem);
      order := digest :: !order
    end
  in
  Interp.set_crash_hook t (fun () ->
      let dp = Mem.durable_digest mem and dl = Mem.working_digest mem in
      capture dp Mem.crash_image;
      capture dl Mem.working_image;
      points := (Interp.crash_points_hit t, dp, dl) :: !points);
  List.iter (fun (f, args) -> ignore (Compile.call t f args)) setup;
  let points = List.rev !points in
  let order = List.rev !order in
  let key image = { Memo.prog_sig; checker; checker_args; image } in
  let pending =
    List.filter (fun d -> not (Hashtbl.mem memo.Memo.table (key d))) order
  in
  let run_one d =
    recover ~config prog ~checker ~checker_args (Hashtbl.find images d)
  in
  let results =
    if jobs <= 1 then List.map run_one pending
    else
      Hippo_parallel.Pool.run ~domains:jobs (fun pool ->
          Hippo_parallel.Pool.map pool run_one pending)
  in
  List.iter2
    (fun d ok -> Hashtbl.replace memo.Memo.table (key d) ok)
    pending results;
  let verdict_of d = Hashtbl.find memo.Memo.table (key d) in
  let verdicts =
    List.map
      (fun (i, dp, dl) ->
        { crash_index = i; pessimistic_ok = verdict_of dp; lucky_ok = verdict_of dl })
      points
  in
  let n = List.length points in
  let distinct f =
    List.length
      (List.sort_uniq compare (List.map (fun (_, dp, dl) -> f dp dl) points))
  in
  let runs = List.length pending in
  let hits = (2 * n) - runs in
  memo.Memo.hits <- memo.Memo.hits + hits;
  memo.Memo.misses <- memo.Memo.misses + runs;
  ( verdicts,
    {
      crash_points = n;
      distinct_pessimistic = distinct (fun dp _ -> dp);
      distinct_lucky = distinct (fun _ dl -> dl);
      distinct_images = List.length order;
      recovery_runs = runs;
      memo_hits = hits;
    } )

(** [sweep_with_stats ?memo prog ~setup ~checker ~checker_args] checks
    every crash point of the workload in a single pass; returns the
    verdicts in crash-point order plus dedup statistics. The verdict list
    is byte-identical to {!replay_sweep}'s and across [jobs] settings.
    [?memo] carries recovery verdicts across sweeps; [?memo_sig]
    overrides the program component of the memo key — pass one signature
    for two programs only when their checkers are known equivalent on
    every image (e.g. original vs harm-free repair, see
    {!Hippo_engine.Verify}). *)
let sweep_with_stats ?config ?(jobs = 1) ?memo ?memo_sig prog ~setup ~checker
    ~checker_args =
  let memo = match memo with Some m -> m | None -> Memo.create () in
  let prog_sig = match memo_sig with Some s -> s | None -> program_sig prog in
  single_pass_sweep ?config ~jobs ~memo ~prog_sig prog ~setup ~checker
    ~checker_args

(** [sweep] is {!sweep_with_stats} without the statistics. *)
let sweep ?config ?jobs ?memo prog ~setup ~checker ~checker_args =
  fst (sweep_with_stats ?config ?jobs ?memo prog ~setup ~checker ~checker_args)
