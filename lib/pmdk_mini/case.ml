(** A reproduced durability bug: the subject program, the workload that
    makes pmcheck report it, and the ground truth the evaluation compares
    against (the developer's fix and the fix shape Hippocrates is expected
    to produce — Fig. 3's two columns). *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core

type dev_fix =
  | Dev_inter_flush_fence  (** developers added a persistent helper / persist call *)
  | Dev_portable_flush
      (** developers inserted a libpmem flush that dispatches on CPU
          features at run time (the "more machine-portable" fixes of §6.2) *)

type expected_shape =
  | Exp_intra_flush
  | Exp_intra_fence
  | Exp_intra_flush_fence
  | Exp_inter of int  (** hoist depth *)

type t = {
  id : string;
  system : string;
  issue : int option;  (** upstream issue number, when modelled on one *)
  title : string;
  program : Program.t Lazy.t;
  workload : Machine.t -> unit;
  entry : string;  (** entry function the workload drives *)
  expected_kind : Report.kind;
  expected_shape : expected_shape;
  dev_fix : dev_fix option;  (** None for previously-undocumented bugs *)
  notes : string;
}

let shape_matches (shape : expected_shape) (s : Fix.shape) =
  match (shape, s) with
  | Exp_intra_flush, Fix.Shape_intra_flush -> true
  | Exp_intra_fence, Fix.Shape_intra_fence -> true
  | Exp_intra_flush_fence, Fix.Shape_intra_flush_fence -> true
  | Exp_inter d, Fix.Shape_interprocedural d' -> d = d'
  | _ -> false

let pp_shape ppf = function
  | Exp_intra_flush -> Fmt.string ppf "intraprocedural flush (clwb)"
  | Exp_intra_fence -> Fmt.string ppf "intraprocedural fence"
  | Exp_intra_flush_fence -> Fmt.string ppf "intraprocedural flush+fence"
  | Exp_inter d -> Fmt.pf ppf "interprocedural flush+fence (%d up)" d

let pp_dev_fix ppf = function
  | Some Dev_inter_flush_fence -> Fmt.string ppf "interprocedural flush+fence"
  | Some Dev_portable_flush -> Fmt.string ppf "interprocedural flush (runtime-dispatched)"
  | None -> Fmt.string ppf "(previously undocumented)"

(** Count the distinct buggy store sites among the reports — the paper's
    "bugs" unit (23 across the three systems). *)
let static_bug_sites (bugs : Report.bug list) =
  List.sort_uniq Iid.compare
    (List.map (fun (b : Report.bug) -> b.Report.store.iid) bugs)
  |> List.length
