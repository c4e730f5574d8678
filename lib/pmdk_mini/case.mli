(** A reproduced durability bug: the subject program, the workload that
    makes pmcheck report it, and the ground truth the evaluation compares
    against (the developer's fix and the fix shape Hippocrates is expected
    to produce — Fig. 3's two columns). *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core

type dev_fix =
  | Dev_inter_flush_fence
      (** developers added a persistent helper / persist call *)
  | Dev_portable_flush
      (** developers inserted a libpmem flush that dispatches on CPU
          features at run time (the "more machine-portable" fixes of
          §6.2) *)

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
  entry : string;
  expected_kind : Report.kind;
  expected_shape : expected_shape;
  dev_fix : dev_fix option;  (** [None] for previously-undocumented bugs *)
  notes : string;
}

val shape_matches : expected_shape -> Fix.shape -> bool
val pp_shape : Format.formatter -> expected_shape -> unit
val pp_dev_fix : Format.formatter -> dev_fix option -> unit

(** Count the distinct buggy store sites among the reports — the paper's
    "bugs" unit. *)
val static_bug_sites : Report.bug list -> int
