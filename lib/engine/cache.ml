(* Versioned analysis cache: memoized pure analyses keyed by a program
   version counter. See the interface for the invalidation rules. *)

open Hippo_pmir

type entry = {
  version : int;
  prog : Program.t;
  mutable size : int option;
  mutable andersen : Hippo_alias.Andersen.t option;
  mutable oracle : Hippo_alias.Oracle.t option;
  mutable static_ :
    (string list option * Hippo_staticcheck.Checker.result) list;
      (* keyed by the entry-point override *)
}

type t = {
  mutable entries : entry list;  (* newest first *)
  mutable next_version : int;
  mutable andersen_runs : int;
}

type view = { cache : t; entry : entry }

let create () = { entries = []; next_version = 0; andersen_runs = 0 }

let view t prog =
  match List.find_opt (fun e -> e.prog == prog) t.entries with
  | Some entry -> { cache = t; entry }
  | None ->
      let entry =
        {
          version = t.next_version;
          prog;
          size = None;
          andersen = None;
          oracle = None;
          static_ = [];
        }
      in
      t.next_version <- t.next_version + 1;
      t.entries <- entry :: t.entries;
      { cache = t; entry }

let version v = v.entry.version
let program v = v.entry.prog
let versions t = t.next_version

(* ------------------------------------------------------------------ *)

let memo v get set compute =
  match get v.entry with
  | Some x -> x
  | None ->
      let x = compute v.entry.prog in
      set v.entry x;
      x

let size v =
  memo v (fun e -> e.size) (fun e x -> e.size <- Some x) Program.size

let andersen v =
  memo v
    (fun e -> e.andersen)
    (fun e x -> e.andersen <- Some x)
    (fun prog ->
      v.cache.andersen_runs <- v.cache.andersen_runs + 1;
      Hippo_alias.Andersen.analyze prog)

let oracle v =
  memo v
    (fun e -> e.oracle)
    (fun e x -> e.oracle <- Some x)
    (fun _prog -> Hippo_alias.Oracle.full_aa (andersen v))

let static_check ?entries v =
  match List.assoc_opt entries v.entry.static_ with
  | Some r -> r
  | None ->
      (* the points-to analysis is shared with every other consumer of
         this version — repair, optimize and re-checks all see one run *)
      let r =
        Hippo_staticcheck.Checker.check ~aa:(andersen v) ?entries v.entry.prog
      in
      v.entry.static_ <- (entries, r) :: v.entry.static_;
      r

(* An observed run cannot be answered from the memo (the caller wants the
   hook fired over the converged states), but it still reuses the cached
   Andersen result and feeds the static memo so a later plain
   [static_check] with the same entries is a hit. *)
let static_observed ?entries v ~observe =
  let r =
    Hippo_staticcheck.Checker.check ~aa:(andersen v) ~observe ?entries
      v.entry.prog
  in
  if List.assoc_opt entries v.entry.static_ = None then
    v.entry.static_ <- (entries, r) :: v.entry.static_;
  r

let andersen_runs t = t.andersen_runs
