(* Bentō-style flush/fence optimizer (see optimize.mli and DESIGN §12).

   Two analyses cooperate, both fed by a single observed run of the
   static checker (Andersen comes memoized from the versioned cache):

   - the {e observation} layer replays each flush/fence transfer on the
     converged abstract states the checker visited and demands it be the
     identity everywhere — the guarantee that deletion cannot perturb the
     checker's own fixpoint, i.e. the static bug reports;
   - the {e strict} layer is a separate intraprocedural must-analysis
     (clean lines / pending lines / write-pending-queue flag) whose
     entry assumptions are unconditionally pessimistic — the guarantee
     that deletion is a dynamic no-op on every execution, so crash-sweep
     verdicts cannot drift.

   A site is removed only when both agree. The engine's opt-verify pass
   additionally re-checks the optimized program and reverts wholesale if
   the static reports are not byte-identical. *)

open Hippo_pmir
open Hippo_pmcheck
module SC = Hippo_staticcheck
module Andersen = Hippo_alias.Andersen
module ISet = Andersen.ISet
module SSet = Set.Make (String)

(* Cache lines identified as (abstract object, line index). *)
module LSet = Set.Make (struct
  type t = int * int

  let compare = Stdlib.compare
end)

type rule =
  | Covered_flush
  | Dominated_fence
  | Coalesced_fence
  | Covered_persist
  | Volatile_flush

let rule_name = function
  | Covered_flush -> "covered-flush"
  | Dominated_fence -> "dominated-fence"
  | Coalesced_fence -> "coalesced-fence"
  | Covered_persist -> "covered-persist"
  | Volatile_flush -> "volatile-flush"

type removal = {
  r_iid : Iid.t;
  r_loc : Loc.t;
  r_func : string;
  r_what : string;
  r_rule : rule;
}

let pp_removal ppf r =
  Fmt.pf ppf "%s: %s at %a [%s]" r.r_func r.r_what Loc.pp r.r_loc
    (rule_name r.r_rule)

(* ------------------------------------------------------------------ *)
(* Observation accumulators *)

(* May-effect of one instruction on PM cache lines, joined over every
   observed calling context. *)
type eff = Enone | Elines of LSet.t | Eobjs of ISet.t | Eany

let oids_of_lines ls = LSet.fold (fun (oid, _) s -> ISet.add oid s) ls

let eff_join a b =
  match (a, b) with
  | Enone, x | x, Enone -> x
  | Eany, _ | _, Eany -> Eany
  | Elines a, Elines b -> Elines (LSet.union a b)
  | Eobjs a, Eobjs b -> Eobjs (ISet.union a b)
  | Elines l, Eobjs o | Eobjs o, Elines l -> Eobjs (oids_of_lines l o)

type acc = {
  mutable visits : int;
  mutable pm_free : bool;  (* provably no PM target, at every visit *)
  mutable may : eff;
  mutable must : LSet.t option;
      (* the exact line set, identical at every visit — only for
         single-instance objects (PM region, globals), see [resolve] *)
  mutable must_init : bool;
  mutable identity : bool;
      (* the checker transfer was the identity on every observed state *)
}

let fresh_acc () =
  {
    visits = 0;
    pm_free = true;
    may = Enone;
    must = None;
    must_init = false;
    identity = true;
  }

(* Worst-case stand-in for instructions the checker never visited. Never
   mutated. *)
let dead_acc =
  {
    visits = 0;
    pm_free = false;
    may = Eany;
    must = None;
    must_init = true;
    identity = false;
  }

type t = {
  ctx : SC.Transfer.ctx;
  info : SC.Summary.info SC.Summary.SMap.t;
  taccs : acc Iid.Tbl.t;
}

let acc_for t iid =
  match Iid.Tbl.find_opt t.taccs iid with
  | Some a -> a
  | None ->
      let a = fresh_acc () in
      Iid.Tbl.add t.taccs iid a;
      a

let acc_of t iid =
  match Iid.Tbl.find_opt t.taccs iid with Some a -> a | None -> dead_acc

(* A line may only be promoted to clean/pending when its abstract object
   has exactly one runtime instance: allocation-site objects (pm_alloc /
   malloc / alloca) can stand for several live allocations, and a
   flush+fence of one instance must not certify the others. *)
let single_instance t oid =
  match (Andersen.obj t.ctx.SC.Transfer.aa oid).Andersen.site with
  | `Pm_region | `Global _ -> true
  | `Alloca _ | `Malloc _ | `Pm_alloc _ -> false

(* Resolve one access: which PM lines can it touch, and do we know them
   exactly? [`Lines (ls, exact)] — [exact] means a single-instance
   singleton object at a known offset, i.e. [ls] is the precise runtime
   coverage. *)
let resolve t sym ~size =
  match sym with
  | SC.Absmem.Int _ -> `No_pm
  | _ -> (
      match SC.Transfer.sym_targets t.ctx sym with
      | None -> `Any
      | Some (oids, off) -> (
          let pm = SC.Transfer.pm_only t.ctx oids in
          if ISet.is_empty pm then `No_pm
          else
            match off with
            | Some o when o >= 0 && size > 0 ->
                let lo = o / Layout.cache_line
                and hi = (o + size - 1) / Layout.cache_line in
                let lines =
                  ISet.fold
                    (fun oid ls ->
                      let rec add l ls =
                        if l > hi then ls else add (l + 1) (LSet.add (oid, l) ls)
                      in
                      add lo ls)
                    pm LSet.empty
                in
                let exact =
                  ISet.cardinal pm = 1 && single_instance t (ISet.choose pm)
                in
                `Lines (lines, exact)
            | _ -> `Objs pm))

let meet_must a m =
  if not a.must_init then begin
    a.must_init <- true;
    a.must <- m
  end
  else
    match (a.must, m) with
    | Some x, Some y when LSet.equal x y -> ()
    | _ -> a.must <- None

let record_target a = function
  | `No_pm -> meet_must a (Some LSet.empty)
  | `Lines (ls, exact) ->
      a.pm_free <- false;
      a.may <- eff_join a.may (Elines ls);
      meet_must a (if exact then Some ls else None)
  | `Objs pm ->
      a.pm_free <- false;
      a.may <- eff_join a.may (Eobjs pm);
      meet_must a None
  | `Any ->
      a.pm_free <- false;
      a.may <- Eany;
      meet_must a None

(* Degrade an unknown-length range access to its object set. *)
let whole_object = function
  | `Lines (ls, _) -> `Objs (oids_of_lines ls ISet.empty)
  | x -> x

let int_len = function SC.Absmem.Int n when n > 0 -> Some n | _ -> None

(* The checker's reporting-pass hook: accumulate target resolution per
   instruction and replay flush/fence transfers to test for identity. *)
let observe t ~func st (i : Instr.t) =
  let ev v = SC.Transfer.eval t.ctx ~func st v in
  let iid = Instr.iid i in
  let check_identity a st' =
    if not (SC.Absmem.equal st st') then a.identity <- false
  in
  match Instr.op i with
  | Instr.Store { addr; size; _ } ->
      let a = acc_for t iid in
      a.visits <- a.visits + 1;
      record_target a (resolve t (ev addr) ~size)
  | Instr.Flush { kind; addr } ->
      let a = acc_for t iid in
      a.visits <- a.visits + 1;
      let sym = ev addr in
      record_target a (resolve t sym ~size:1);
      check_identity a (SC.Transfer.flush t.ctx st ~iid ~kind sym)
  | Instr.Fence _ ->
      let a = acc_for t iid in
      a.visits <- a.visits + 1;
      check_identity a (SC.Transfer.fence st)
  | Instr.Call { callee = "pmem_drain"; _ } ->
      let a = acc_for t iid in
      a.visits <- a.visits + 1;
      check_identity a (SC.Transfer.fence st)
  | Instr.Call { callee = ("pmem_flush" | "pmem_persist") as callee; args; _ }
    ->
      let a = acc_for t iid in
      a.visits <- a.visits + 1;
      let arg n =
        match List.nth_opt args n with Some v -> ev v | None -> SC.Absmem.Unknown
      in
      let addr = arg 0 and len = arg 1 in
      record_target a
        (match int_len len with
        | Some l -> resolve t addr ~size:l
        | None -> whole_object (resolve t addr ~size:1));
      let st1 = SC.Transfer.flush_range t.ctx st ~iid ~kind:Instr.Clwb addr len in
      check_identity a
        (if String.equal callee "pmem_persist" then SC.Transfer.fence st1
         else st1)
  | Instr.Call { callee = "pmem_memcpy_persist"; args; _ } ->
      let a = acc_for t iid in
      a.visits <- a.visits + 1;
      let arg n =
        match List.nth_opt args n with Some v -> ev v | None -> SC.Absmem.Unknown
      in
      record_target a
        (match int_len (arg 2) with
        | Some l -> resolve t (arg 0) ~size:l
        | None -> whole_object (resolve t (arg 0) ~size:1))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Strict must-analysis *)

(* Per program point: [clean] — lines where every store so far is durable
   on every path; [pending] — lines whose undurable data is entirely in
   flight (flushed, awaiting fence); [wpq] — a flush or nontemporal
   store may have executed since the last fence on some path (entry
   assumption: true — the caller may have flushes in flight, which keeps
   fence coalescing same-function-dominated and unconditionally sound). *)
type sstate = { clean : LSet.t; pending : LSet.t; wpq : bool }

let sentry = { clean = LSet.empty; pending = LSet.empty; wpq = true }

let sjoin a b =
  {
    clean = LSet.inter a.clean b.clean;
    pending = LSet.inter a.pending b.pending;
    wpq = a.wpq || b.wpq;
  }

let sequal a b =
  LSet.equal a.clean b.clean && LSet.equal a.pending b.pending && a.wpq = b.wpq

let subtract st = function
  | Enone -> st
  | Elines ls ->
      {
        st with
        clean = LSet.diff st.clean ls;
        pending = LSet.diff st.pending ls;
      }
  | Eobjs oids ->
      let keep (oid, _) = not (ISet.mem oid oids) in
      {
        st with
        clean = LSet.filter keep st.clean;
        pending = LSet.filter keep st.pending;
      }
  | Eany -> { st with clean = LSet.empty; pending = LSet.empty }

(* Functions that may transitively execute a flush or nontemporal store
   (syntactic closure over the call graph; the libpmem runtime bodies
   carry their own [Flush] instructions, so no name special-casing). *)
let may_flush_set prog =
  let funcs = Program.funcs prog in
  let direct f =
    Func.fold_instrs
      (fun acc (i : Instr.t) ->
        acc
        ||
        match Instr.op i with
        | Instr.Flush _ -> true
        | Instr.Store { nontemporal; _ } -> nontemporal
        | _ -> false)
      false f
  in
  let set =
    ref
      (List.fold_left
         (fun s f -> if direct f then SSet.add (Func.name f) s else s)
         SSet.empty funcs)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        let name = Func.name f in
        if not (SSet.mem name !set) then
          let calls_flusher =
            List.exists
              (fun (_, callee, _) -> SSet.mem callee !set)
              (Func.call_sites f)
          in
          if calls_flusher then begin
            set := SSet.add name !set;
            changed := true
          end)
      funcs
  done;
  !set

let strict_fence st =
  { clean = LSet.union st.clean st.pending; pending = LSet.empty; wpq = false }

let strict_flush ~kind ac st =
  if ac.pm_free then st
  else
    match ac.must with
    | Some ls when LSet.subset ls st.clean -> st (* flush of clean lines *)
    | Some ls -> (
        match kind with
        | Instr.Clflush ->
            (* serialized: the lines' dirty data is durable outright *)
            {
              st with
              clean = LSet.union st.clean ls;
              pending = LSet.diff st.pending ls;
            }
        | Instr.Clwb | Instr.Clflushopt ->
            { st with pending = LSet.union st.pending ls; wpq = true })
    | None -> (
        match kind with
        | Instr.Clflush -> st
        | Instr.Clwb | Instr.Clflushopt -> { st with wpq = true })

let strict_step t mf st (i : Instr.t) =
  let iid = Instr.iid i in
  match Instr.op i with
  | Instr.Store { nontemporal; _ } ->
      let ac = acc_of t iid in
      if ac.pm_free then st
      else
        let before = LSet.union st.clean st.pending in
        let st = subtract st ac.may in
        if nontemporal then
          (* straight to the write-pending queue — but a line is only
             fully in flight if no older undurable store shares it *)
          let pending =
            match ac.must with
            | Some ls when LSet.subset ls before -> LSet.union st.pending ls
            | _ -> st.pending
          in
          { st with pending; wpq = true }
        else st
  | Instr.Flush { kind; _ } -> strict_flush ~kind (acc_of t iid) st
  | Instr.Fence _ -> strict_fence st
  | Instr.Call { callee = "pmem_drain"; _ } -> strict_fence st
  | Instr.Call { callee = "pmem_flush"; _ } ->
      strict_flush ~kind:Instr.Clwb (acc_of t iid) st
  | Instr.Call { callee = "pmem_persist"; _ } ->
      strict_fence (strict_flush ~kind:Instr.Clwb (acc_of t iid) st)
  | Instr.Call { callee = "pmem_memcpy_persist"; _ } ->
      let ac = acc_of t iid in
      if ac.pm_free then strict_fence st (* still drains *)
      else
        let st = strict_fence (subtract st ac.may) in
        (match ac.must with
        | Some ls -> { st with clean = LSet.union st.clean ls }
        | None -> st)
  | Instr.Call { callee; _ } ->
      if Program.is_intrinsic callee then st
      else (
        match Program.find t.ctx.SC.Transfer.prog callee with
        | None -> { clean = LSet.empty; pending = LSet.empty; wpq = true }
        | Some _ ->
            let info = SC.Summary.info_for t.info callee in
            let st =
              if info.SC.Summary.opaque then
                { st with clean = LSet.empty; pending = LSet.empty }
              else subtract st (Eobjs info.SC.Summary.touched)
            in
            let flushes = SSet.mem callee mf in
            if info.SC.Summary.may_fence then
              {
                clean = LSet.union st.clean st.pending;
                pending = LSet.empty;
                wpq = flushes;
              }
            else { st with wpq = st.wpq || flushes })
  | _ -> st

(* Worklist fixpoint over one function's blocks, then a final sweep over
   the converged in-states recording the strict state at every
   instruction into [states]. *)
let strict_func t mf states f =
  let entry = (Func.entry f).Func.label in
  let in_states : (string, sstate) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace in_states entry sentry;
  let work = Queue.create () in
  Queue.add entry work;
  let propagate target st =
    match Hashtbl.find_opt in_states target with
    | None ->
        Hashtbl.replace in_states target st;
        Queue.add target work
    | Some old ->
        let j = sjoin old st in
        if not (sequal j old) then begin
          Hashtbl.replace in_states target j;
          Queue.add target work
        end
  in
  let exec ~record label st0 =
    let block = Option.get (Func.find_block f label) in
    ignore
      (List.fold_left
         (fun st (i : Instr.t) ->
           if record then Iid.Tbl.replace states (Instr.iid i) st;
           match Instr.op i with
           | Instr.Br { target } ->
               if not record then propagate target st;
               st
           | Instr.Condbr { if_true; if_false; _ } ->
               if not record then begin
                 propagate if_true st;
                 propagate if_false st
               end;
               st
           | Instr.Ret _ -> st
           | _ -> strict_step t mf st i)
         st0 block.Func.instrs)
  in
  while not (Queue.is_empty work) do
    let label = Queue.pop work in
    match Hashtbl.find_opt in_states label with
    | None -> ()
    | Some st -> exec ~record:false label st
  done;
  Hashtbl.iter (fun label st -> exec ~record:true label st) in_states

(* ------------------------------------------------------------------ *)
(* Fence coalescing windows.

   In this model the only durability-observable events are [Crash]
   instructions: crash sweeps, the fault-injecting simulator and the
   crash-image verifiers all crash exactly there (or at op boundaries,
   i.e. after a [Ret]). A fence may therefore be deleted whenever every
   path from it reaches a {e kept} fence without passing a [Crash], a
   [Ret], or a call that might crash (or not return) — its pending
   write-backs commit at the later fence instead, with the {e same}
   snapshots (pstate snapshots are taken at flush time, so commits
   commute with intervening stores and flushes), leaving every crash
   image bit-identical. This is the epoch view of Bentō: within a
   crash-free window, one fence ends the epoch as well as two. *)

(* Syntactic closure: functions that might execute a [Crash] (or call
   out of the program / abort — conservatively treated as crashing). *)
let has_crash_set prog =
  let funcs = Program.funcs prog in
  let known callee =
    Program.is_intrinsic callee || Program.mem prog callee
  in
  let direct f =
    Func.fold_instrs
      (fun acc (i : Instr.t) ->
        acc
        ||
        match Instr.op i with
        | Instr.Crash -> true
        | Instr.Call { callee = "abort"; _ } -> true
        | Instr.Call { callee; _ } -> not (known callee)
        | _ -> false)
      false f
  in
  let set =
    ref
      (List.fold_left
         (fun s f -> if direct f then SSet.add (Func.name f) s else s)
         SSet.empty funcs)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        let name = Func.name f in
        if not (SSet.mem name !set) then
          if
            List.exists
              (fun (_, callee, _) -> SSet.mem callee !set)
              (Func.call_sites f)
          then begin
            set := SSet.add name !set;
            changed := true
          end)
      funcs
  done;
  !set

let fencing_callees = [ "pmem_drain"; "pmem_persist"; "pmem_memcpy_persist" ]

(* [window_scan prog hc mf ~doomed f rest label] — true when every path
   starting at the instruction list [rest] (the tail of block [label])
   reaches a kept fence before any Crash / Ret / possibly-crashing call.
   [mf] is the must-fence function set (callees guaranteed to fence on
   every path, crash-free); fences in [doomed] are transparent — they
   are being deleted too, so they cannot justify anything. *)
let window_scan prog hc mf ~doomed f rest label =
  let memo : (string, bool) Hashtbl.t = Hashtbl.create 8 in
  let rec instrs visiting = function
    | [] -> false (* no terminator — be conservative *)
    | (i : Instr.t) :: rest -> (
        let kept_fence () = not (Iid.Set.mem (Instr.iid i) doomed) in
        match Instr.op i with
        | Instr.Fence _ -> if kept_fence () then true else instrs visiting rest
        | Instr.Crash -> false
        | Instr.Ret _ -> false
        | Instr.Br { target } -> block visiting target
        | Instr.Condbr { if_true; if_false; _ } ->
            block visiting if_true && block visiting if_false
        | Instr.Call { callee; _ } ->
            if List.mem callee fencing_callees then
              if kept_fence () then true else instrs visiting rest
            else if String.equal callee "abort" then false
            else if Program.is_intrinsic callee then instrs visiting rest
            else if not (Program.mem prog callee) then false
            else if SSet.mem callee mf then true
            else if SSet.mem callee hc then false
            else instrs visiting rest
        | _ -> instrs visiting rest)
  and block visiting lbl =
    match Hashtbl.find_opt memo lbl with
    | Some r -> r
    | None ->
        if SSet.mem lbl visiting then false (* loop with no fence *)
        else
          let r =
            match Func.find_block f lbl with
            | None -> false
            | Some b -> instrs (SSet.add lbl visiting) b.Func.instrs
          in
          Hashtbl.replace memo lbl r;
          r
  in
  instrs (SSet.singleton label) rest

(* Must-fence closure: functions guaranteed to execute a fence on every
   path before returning (and to be crash-free up to it). Computed as a
   monotone fixpoint with the window scanner itself, no doomed set. *)
let must_fence_set prog hc =
  let funcs = Program.funcs prog in
  let set = ref SSet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        let name = Func.name f in
        if not (SSet.mem name !set) then
          let e = Func.entry f in
          if
            window_scan prog hc !set ~doomed:Iid.Set.empty f e.Func.instrs
              e.Func.label
          then begin
            set := SSet.add name !set;
            changed := true
          end)
      funcs
  done;
  !set

(* ------------------------------------------------------------------ *)
(* Decisions *)

let decide t states prog =
  let hc = has_crash_set prog in
  let mfence = must_fence_set prog hc in
  let mk (i : Instr.t) fname rule =
    {
      r_iid = Instr.iid i;
      r_loc = Instr.loc i;
      r_func = fname;
      r_what = Fmt.str "%a" Instr.pp_op (Instr.op i);
      r_rule = rule;
    }
  in
  (* Stage 1: per-instruction identity rules (observed + strict). Each
     deleted instruction is a no-op on the original program, so these
     decisions cannot invalidate one another. *)
  let stage1 f =
    let fname = Func.name f in
    List.rev
      (Func.fold_instrs
         (fun acc (i : Instr.t) ->
           let iid = Instr.iid i in
           match (Iid.Tbl.find_opt t.taccs iid, Iid.Tbl.find_opt states iid)
           with
           | Some a, Some st when a.visits >= 1 && a.identity ->
               let covered () =
                 match a.must with
                 | Some ls ->
                     (not (LSet.is_empty ls)) && LSet.subset ls st.clean
                 | None -> false
               in
               let r =
                 match Instr.op i with
                 | Instr.Flush _ ->
                     if a.pm_free then Some Volatile_flush
                     else if covered () then Some Covered_flush
                     else None
                 | Instr.Fence _ ->
                     if not st.wpq then Some Dominated_fence else None
                 | Instr.Call { dst = None; callee = "pmem_drain"; _ } ->
                     if not st.wpq then Some Dominated_fence else None
                 | Instr.Call { dst = None; callee = "pmem_flush"; _ } ->
                     if a.pm_free then Some Volatile_flush
                     else if covered () then Some Covered_flush
                     else None
                 | Instr.Call { dst = None; callee = "pmem_persist"; _ } ->
                     if (not st.wpq) && (a.pm_free || covered ()) then
                       Some Covered_persist
                     else None
                 | _ -> None
               in
               (match r with Some r -> mk i fname r :: acc | None -> acc)
           | _ -> acc)
         [] f)
  in
  (* Stage 2: fence coalescing. Processed in reverse program order so a
     window only cites fences whose keep/delete fate is already final;
     doomed fences are transparent to the scan, which extends the
     (crash-free) window to the next kept fence. *)
  let coalesce doomed f =
    let fname = Func.name f in
    let sites =
      List.concat_map
        (fun (b : Func.block) ->
          let rec walk = function
            | [] -> []
            | (i : Instr.t) :: rest ->
                let here =
                  match Instr.op i with
                  | Instr.Fence _ -> [ (i, rest, b.Func.label) ]
                  | Instr.Call { dst = None; callee = "pmem_drain"; _ } ->
                      [ (i, rest, b.Func.label) ]
                  | _ -> []
                in
                here @ walk rest
          in
          walk b.Func.instrs)
        (Func.blocks f)
    in
    List.fold_left
      (fun (doomed, acc) (i, rest, label) ->
        if Iid.Set.mem (Instr.iid i) doomed then (doomed, acc)
        else if window_scan prog hc mfence ~doomed f rest label then
          ( Iid.Set.add (Instr.iid i) doomed,
            mk i fname Coalesced_fence :: acc )
        else (doomed, acc))
      (doomed, []) (List.rev sites)
  in
  List.concat_map
    (fun f ->
      let s1 = stage1 f in
      let doomed =
        List.fold_left
          (fun s r ->
            match r.r_rule with
            (* anything with a fence effect that is going away must not
               justify a coalescing window *)
            | Dominated_fence | Covered_persist -> Iid.Set.add r.r_iid s
            | Covered_flush | Volatile_flush | Coalesced_fence -> s)
          Iid.Set.empty s1
      in
      let _, s2 = coalesce doomed f in
      s1 @ s2)
    (Program.funcs prog)

(* ------------------------------------------------------------------ *)
(* Driver-facing API *)

type analysis = {
  a_bugs : Report.bug list;  (** static reports on the input (baseline) *)
  a_removals : removal list;
  a_checker : SC.Checker.stats;
}

let analyze ?(cache = Cache.create ()) ?entries prog =
  let v = Cache.view cache prog in
  let aa = Cache.andersen v in
  let ctx = SC.Transfer.make_ctx prog aa in
  let info = SC.Summary.modinfo ctx in
  let t = { ctx; info; taccs = Iid.Tbl.create 256 } in
  let result = Cache.static_observed ?entries v ~observe:(observe t) in
  let mf = may_flush_set prog in
  let states : sstate Iid.Tbl.t = Iid.Tbl.create 256 in
  List.iter (strict_func t mf states) (Program.funcs prog);
  {
    a_bugs = result.SC.Checker.bugs;
    a_removals = decide t states prog;
    a_checker = result.SC.Checker.stats;
  }

let rewrite prog removals =
  let doomed =
    List.fold_left (fun s r -> Iid.Set.add r.r_iid s) Iid.Set.empty removals
  in
  let prog' =
    Program.map_funcs
      (Func.map_instrs (fun i ->
           if Iid.Set.mem (Instr.iid i) doomed then [] else [ i ]))
      prog
  in
  Validate.check_exn prog';
  prog'

let report_lines bugs = List.sort String.compare (List.map Report.to_line bugs)
let reports_equal a b = List.equal String.equal (report_lines a) (report_lines b)

type outcome = {
  o_prog : Program.t;  (** the input program when reverted *)
  o_removals : removal list;  (** applied removals; [[]] when reverted *)
  o_candidates : int;
  o_before : Hippo_perfmodel.Timed.static_counts;
  o_after : Hippo_perfmodel.Timed.static_counts;
  o_bugs : Report.bug list;
  o_residual : Report.bug list;
  o_report_equal : bool;
  o_reverted : bool;
}

(* Do-no-harm check: byte-identical crash-sweep verdict lists. *)
let crash_verdicts_identical ?jobs ~setup ~checker ~checker_args original
    optimized =
  let sweep p = Crashsim.sweep ?jobs p ~setup ~checker ~checker_args in
  sweep original = sweep optimized

let pp_outcome ppf o =
  let open Hippo_perfmodel in
  let n rule = List.length (List.filter (fun r -> r.r_rule = rule) o.o_removals) in
  Fmt.pf ppf
    "@[<v>persistence ops: %a -> %a@,removed: %d (%d covered flush, %d \
     dominated fence, %d coalesced fence, %d persist, %d volatile)%s@,static \
     reports: %d -> %d (%s)@]"
    Timed.pp_static_counts o.o_before Timed.pp_static_counts o.o_after
    (List.length o.o_removals)
    (n Covered_flush) (n Dominated_fence) (n Coalesced_fence)
    (n Covered_persist) (n Volatile_flush)
    (if o.o_reverted then " [REVERTED: static reports drifted]" else "")
    (List.length o.o_bugs)
    (List.length o.o_residual)
    (if o.o_report_equal then "identical" else "drifted")
