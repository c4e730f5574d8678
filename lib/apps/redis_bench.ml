(** The Redis case study (§6.3, Fig. 4).

    Builds the three persistent Redises:

    - {b Redis_H-intra}: flush-free Redis repaired with Phase 3 disabled
      (intraprocedural fixes only);
    - {b Redis-pm}: the hand-written {!Redis_mini.Manual} baseline;
    - {b Redis_H-full}: flush-free Redis repaired by full Hippocrates;

    then drives each through the YCSB workloads under the latency cost
    model and reports throughput with 95% confidence intervals. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core

(** The repair workload: exercises every PM-mutating path (fresh insert,
    in-place update, delete at chain head and mid-chain) plus the volatile
    paths (reply echoes, GET copies) that teach the heuristic which helpers
    are dual-use. Few buckets force collision chains. *)
let repair_workload (t : Machine.t) =
  let s = Redis_mini.attach ~nbuckets:8 t in
  for k = 0 to 19 do
    Redis_mini.op_insert s ~k ~version:0
  done;
  for k = 0 to 4 do
    Redis_mini.op_insert s ~k ~version:1 (* in-place updates *)
  done;
  for k = 0 to 9 do
    ignore (Redis_mini.op_read s ~k)
  done;
  ignore (Redis_mini.op_delete s ~k:3);
  ignore (Redis_mini.op_delete s ~k:11);
  ignore (Redis_mini.op_read s ~k:3)

type variants = {
  h_intra : Program.t;
  manual : Program.t;
  h_full : Program.t;
  full_result : Driver.result;
  intra_result : Driver.result;
}

let repair_variants () : variants =
  let flush_free = Redis_mini.build Redis_mini.Flush_free in
  let manual = Redis_mini.build Redis_mini.Manual in
  let full_result =
    Driver.repair ~name:"redis-H-full" ~workload:repair_workload flush_free
  in
  let intra_result =
    Driver.repair
      ~options:{ Driver.default_options with hoisting = false }
      ~name:"redis-H-intra" ~workload:repair_workload flush_free
  in
  {
    h_intra = intra_result.Driver.repaired;
    manual;
    h_full = full_result.Driver.repaired;
    full_result;
    intra_result;
  }

(** Confirm the baseline is clean and the repaired variants are clean:
    pmemcheck reports no durability bugs on any of the three (the paper's
    precondition for the performance comparison). *)
let residual_bugs prog =
  (* bug collection does not need the event trace *)
  let t =
    Machine.create { Machine.default_config with Machine.trace = false } prog
  in
  Machine.run_workload t repair_workload;
  Machine.bugs t

(* ------------------------------------------------------------------ *)

let load_records s ~n =
  for k = 0 to n - 1 do
    Redis_mini.op_insert s ~k ~version:0
  done

(** One timed trial of one workload against one program variant. *)
let trial ?(cost = Cost.default) prog (spec : Hippo_ycsb.Workload.spec) ~seed :
    Hippo_perfmodel.Timed.run =
  let ops = Hippo_ycsb.Workload.ops spec ~seed in
  let nbuckets = max 64 (spec.record_count / 8) in
  Hippo_perfmodel.Timed.measure ~cost prog
    ~setup:(fun t ->
      let s = Redis_mini.attach ~nbuckets t in
      if spec.kind <> Hippo_ycsb.Workload.Load then
        load_records s ~n:spec.record_count;
      s)
    ~drive:(fun _t s -> List.iter (Redis_mini.run_op s) ops)
    ~ops:(List.length ops)

type row = {
  workload : Hippo_ycsb.Workload.kind;
  intra : Hippo_perfmodel.Stats.summary;
  manual_pm : Hippo_perfmodel.Stats.summary;
  full : Hippo_perfmodel.Stats.summary;
}

(** The full Fig. 4 sweep. [trials] seeds per cell. Throughputs are in
    simulated kops/s. *)
let figure4 ?(trials = 5) ?(record_count = 2_000) ?(op_count = 2_000)
    (v : variants) : row list =
  List.map
    (fun kind ->
      let spec =
        {
          (Hippo_ycsb.Workload.default_spec kind) with
          record_count;
          op_count;
        }
      in
      let summarize prog =
        Hippo_perfmodel.Timed.trials trials (fun seed ->
            trial prog spec ~seed)
      in
      {
        workload = kind;
        intra = summarize v.h_intra;
        manual_pm = summarize v.manual;
        full = summarize v.h_full;
      })
    Hippo_ycsb.Workload.all_kinds

let pp_row ppf r =
  let open Hippo_perfmodel in
  let cell s = Fmt.str "%a" Stats.pp_summary s in
  Fmt.pf ppf
    "%-5s  H-intra: %-14s  Redis-pm: %-14s  H-full: %-14s  (full/intra %.1fx)"
    (Hippo_ycsb.Workload.kind_to_string r.workload)
    (cell r.intra) (cell r.manual_pm) (cell r.full)
    (r.full.Stats.mean /. r.intra.Stats.mean)
