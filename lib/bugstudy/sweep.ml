(* Domain-parallel corpus sweeps. See the interface for the cache and
   determinism story. *)

open Hippo_pmdk_mini
open Hippo_core
module Cache = Hippo_engine.Cache
module Pool = Hippo_parallel.Pool

(* Case programs are lazy; Lazy.force is not safe to race from several
   domains (a concurrent force can observe Lazy.Undefined). Forcing
   serially before fan-out also keeps instruction-identity allocation
   independent of task scheduling. *)
let force_programs cases =
  List.iter (fun (c : Case.t) -> ignore (Lazy.force c.Case.program)) cases

let sweep ?(jobs = 1) ~f cases =
  force_programs cases;
  if jobs <= 1 then (
    let cache = Cache.create () in
    let results = List.map (fun c -> f ~cache c) cases in
    (results, cache))
  else (
    (* Every worker domain memoizes into its own cache, created lazily on
       the domain's first task and recorded under a mutex so the caches
       can be folded together afterwards. *)
    let registry = ref [] in
    let registry_mutex = Mutex.create () in
    let per_domain =
      Domain.DLS.new_key (fun () ->
          let cache = Cache.create () in
          Mutex.lock registry_mutex;
          registry := cache :: !registry;
          Mutex.unlock registry_mutex;
          cache)
    in
    let results =
      Pool.run ~domains:jobs (fun pool ->
          Pool.map pool (fun c -> f ~cache:(Domain.DLS.get per_domain) c) cases)
    in
    let aggregate = Cache.create () in
    List.iter (fun c -> Cache.merge_stats ~into:aggregate c) (List.rev !registry);
    (results, aggregate))

type crash_subject = {
  cs_id : string;
  cs_program : Hippo_pmir.Program.t Lazy.t;
  cs_setup : (string * int list) list;
  cs_checker : string;
  cs_checker_args : int list;
}

module Crashsim = Hippo_pmcheck.Crashsim

(* Same shape as [sweep], with a per-domain recovery memo in place of the
   analysis cache: subjects that land on one domain and reach identical
   durable images (e.g. the same case before and after a bug-free prefix)
   share recovery verdicts. Each task sweeps serially — the parallelism
   budget is spent across subjects, not within one sweep — and verdict
   lists never depend on the memo, so any [jobs] prints identically. *)
let crash_corpus ?config ?(jobs = 1) subjects =
  List.iter (fun s -> ignore (Lazy.force s.cs_program)) subjects;
  let run ~memo s =
    let verdicts, stats =
      Crashsim.sweep_with_stats ?config ~memo
        (Lazy.force s.cs_program) ~setup:s.cs_setup ~checker:s.cs_checker
        ~checker_args:s.cs_checker_args
    in
    (s, verdicts, stats)
  in
  if jobs <= 1 then (
    let memo = Crashsim.Memo.create () in
    (List.map (run ~memo) subjects, memo))
  else (
    let registry = ref [] in
    let registry_mutex = Mutex.create () in
    let per_domain =
      Domain.DLS.new_key (fun () ->
          let memo = Crashsim.Memo.create () in
          Mutex.lock registry_mutex;
          registry := memo :: !registry;
          Mutex.unlock registry_mutex;
          memo)
    in
    let results =
      Pool.run ~domains:jobs (fun pool ->
          Pool.map pool
            (fun s -> run ~memo:(Domain.DLS.get per_domain) s)
            subjects)
    in
    let aggregate = Crashsim.Memo.create () in
    List.iter
      (fun m -> Crashsim.Memo.merge_stats ~into:aggregate m)
      (List.rev !registry);
    (results, aggregate))

let corpus ?options ?jobs cases =
  sweep ?jobs
    ~f:(fun ~cache (case : Case.t) ->
      let result =
        Driver.repair ?options ~cache ~name:case.Case.id
          ~workload:case.Case.workload
          (Lazy.force case.Case.program)
      in
      (case, result))
    cases
