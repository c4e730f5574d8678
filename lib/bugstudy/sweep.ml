(* Domain-parallel corpus sweeps. See the interface for the cache and
   determinism story. *)

open Hippo_pmdk_mini
open Hippo_core
module Cache = Hippo_engine.Cache
module Pool = Hippo_parallel.Pool

let corpus ?options ?(jobs = 1) cases =
  (* Case programs are lazy; Lazy.force is not safe to race from several
     domains (a concurrent force can observe Lazy.Undefined). Forcing
     serially before fan-out also keeps instruction-identity allocation
     independent of task scheduling. *)
  List.iter (fun (c : Case.t) -> ignore (Lazy.force c.Case.program)) cases;
  let repair ~cache (case : Case.t) =
    ( case,
      Driver.repair ?options ~cache ~name:case.Case.id
        ~workload:case.Case.workload
        (Lazy.force case.Case.program) )
  in
  (* every domain that runs a task memoizes into its own cache, created
     on its first task; at [jobs = 1] that is one cache for the sweep *)
  let cache = Domain.DLS.new_key Cache.create in
  Pool.run ~domains:jobs (fun pool ->
      Pool.map pool (fun c -> repair ~cache:(Domain.DLS.get cache) c) cases)
