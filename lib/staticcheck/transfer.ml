(** Abstract transfer functions (see the interface for the semantics). *)

open Hippo_pmir
open Hippo_pmcheck
module Andersen = Hippo_alias.Andersen
module ISet = Andersen.ISet
open Absmem

type ctx = {
  aa : Andersen.t;
  prog : Program.t;
  site_oid : int Iid.Map.t;
  global_oid : (string * int) list;
  region_oid : int option;
}

let make_ctx prog aa =
  let site_oid, global_oid, region_oid =
    List.fold_left
      (fun (sites, globals, region) (o : Andersen.obj) ->
        match o.site with
        | `Alloca iid | `Malloc iid | `Pm_alloc iid ->
            (Iid.Map.add iid o.oid sites, globals, region)
        | `Global g -> (sites, (g, o.oid) :: globals, region)
        | `Pm_region -> (sites, globals, Some o.oid))
      (Iid.Map.empty, [], None)
      (Andersen.objects aa)
  in
  { aa; prog; site_oid; global_oid; region_oid }

let eval ctx ~func st (v : Value.t) =
  match v with
  | Value.Reg r -> (
      match Absmem.lookup st r with
      | Unknown ->
          let oids = Andersen.points_to_var ctx.aa ~func ~reg:r in
          if ISet.is_empty oids then Unknown else Ptr { oids; off = None }
      | s -> s)
  | Value.Imm n -> if Layout.is_pm n then Addr n else Int n
  | Value.Global g -> (
      match List.assoc_opt g ctx.global_oid with
      | Some oid -> Ptr { oids = ISet.singleton oid; off = Some 0 }
      | None -> Unknown)
  | Value.Null -> Int 0

let sym_targets ctx = function
  | Ptr { oids; off } -> if ISet.is_empty oids then None else Some (oids, off)
  | Addr a -> (
      (* a literal PM address: the region object, offset from its base
         (the region base is line-aligned by construction) *)
      match ctx.region_oid with
      | Some oid -> Some (ISet.singleton oid, Some (a - Layout.pm_base))
      | None -> None)
  | Int _ | Unknown -> None

let pm_only ctx oids = ISet.filter (fun o -> Andersen.obj_is_pm (Andersen.obj ctx.aa o)) oids

let value_oids_raw ctx ~func (v : Value.t) =
  match v with
  | Value.Reg r -> Andersen.points_to_var ctx.aa ~func ~reg:r
  | Value.Imm n ->
      if Layout.is_pm n then
        match ctx.region_oid with
        | Some oid -> ISet.singleton oid
        | None -> ISet.empty
      else ISet.empty
  | Value.Global g -> (
      match List.assoc_opt g ctx.global_oid with
      | Some oid -> ISet.singleton oid
      | None -> ISet.empty)
  | Value.Null -> ISet.empty

(* Recompute the coarse layer for [oid] from its live records: with none
   left, everything written was persisted. *)
let refresh_loc st oid =
  let state =
    KMap.fold
      (fun (k : Key.t) (r : srec) acc ->
        if k.oid = oid then Lattice.join acc r.pstate else acc)
      st.mem Lattice.Persisted
  in
  Absmem.set_loc st oid state

let store ctx st ~iid ~loc ~size ~nontemporal ~chain addr_sym =
  match sym_targets ctx addr_sym with
  | None -> st
  | Some (oids, off) ->
      let oids = pm_only ctx oids in
      if ISet.is_empty oids then st
      else
        let line =
          match off with
          | Some o
            when o >= 0 && (o mod Layout.cache_line) + size <= Layout.cache_line
            ->
              Some (o / Layout.cache_line)
          | _ -> None
        in
        let pstate = if nontemporal then Lattice.Flush_pending else Lattice.Dirty in
        let flushed_by = if nontemporal then Some iid else None in
        ISet.fold
          (fun oid st ->
            let key = key_of ~oid ~iid ~chain in
            let r =
              {
                store_iid = iid;
                store_loc = loc;
                size;
                chain;
                line;
                pstate;
                fence_after = false;
                flushed_by;
              }
            in
            refresh_loc { st with mem = KMap.add key r st.mem } oid)
          oids st

let flush ctx st ~iid ~kind addr_sym =
  match sym_targets ctx addr_sym with
  | None -> st
  | Some (oids, off) ->
      let oids = pm_only ctx oids in
      if ISet.is_empty oids then st
      else
        let fline = Option.map (fun o -> o / Layout.cache_line) off in
        let touched = ref ISet.empty in
        let mem =
          KMap.filter_map
            (fun (k : Key.t) (r : srec) ->
              (* A flush at a known line touches exactly that line, so it
                 only discharges records known to sit there; a flush whose
                 line is unknown is (optimistically) a ranged flush loop
                 and covers the whole object. *)
              let covered =
                ISet.mem k.oid oids
                &&
                match (fline, r.line) with
                | Some fl, Some rl -> fl = rl
                | Some _, None -> false
                | None, _ -> true
              in
              if not (covered && Lattice.equal r.pstate Lattice.Dirty) then
                Some r
              else begin
                touched := ISet.add k.oid !touched;
                match kind with
                | Instr.Clflush -> None (* serialized: durable outright *)
                | Instr.Clwb | Instr.Clflushopt ->
                    Some
                      {
                        r with
                        pstate = Lattice.Flush_pending;
                        flushed_by = Some iid;
                      }
              end)
            st.mem
        in
        ISet.fold (fun oid st -> refresh_loc st oid) !touched { st with mem }

(* The [pmem_flush(addr, len)] model: discharge every record in the
   flushed line range. The runtime's real body is a cache-line loop whose
   zero-trip path the fixpoint would join back in, leaving records dirty
   on a path that cannot happen when [len > 0] — so ranged flushes are
   modelled, not analysed (see {!Checker}). With the offset and length
   both known the covered lines are exact; records at an unknown line are
   covered only by a flush starting at the object base (the whole-object
   persist idiom). An unresolvable range optimistically covers the whole
   object, like a [flush] at an unknown line. *)
let flush_range ctx st ~iid ~kind addr_sym len_sym =
  match sym_targets ctx addr_sym with
  | None -> st
  | Some (oids, off) ->
      let oids = pm_only ctx oids in
      if ISet.is_empty oids then st
      else
        let range =
          match (off, len_sym) with
          | Some o, Int l when l > 0 ->
              Some (o / Layout.cache_line, (o + l - 1) / Layout.cache_line, o)
          | _ -> None
        in
        let touched = ref ISet.empty in
        let mem =
          KMap.filter_map
            (fun (k : Key.t) (r : srec) ->
              let covered =
                ISet.mem k.oid oids
                &&
                match (range, r.line) with
                | Some (lo, hi, _), Some rl -> lo <= rl && rl <= hi
                | Some (_, _, o), None -> o = 0
                | None, _ -> true
              in
              if not (covered && Lattice.equal r.pstate Lattice.Dirty) then
                Some r
              else begin
                touched := ISet.add k.oid !touched;
                match kind with
                | Instr.Clflush -> None
                | Instr.Clwb | Instr.Clflushopt ->
                    Some
                      {
                        r with
                        pstate = Lattice.Flush_pending;
                        flushed_by = Some iid;
                      }
              end)
            st.mem
        in
        ISet.fold (fun oid st -> refresh_loc st oid) !touched { st with mem }

let fence st =
  let touched = ref ISet.empty in
  let mem =
    KMap.filter_map
      (fun (k : Key.t) (r : srec) ->
        match r.pstate with
        | Lattice.Flush_pending ->
            touched := ISet.add k.oid !touched;
            None
        | Lattice.Dirty when not r.fence_after ->
            Some { r with fence_after = true }
        | _ -> Some r)
      st.mem
  in
  ISet.fold (fun oid st -> refresh_loc st oid) !touched { st with mem }

(* Constant folding over symbolic values; anything else drops to Unknown
   (which [eval] later replaces by the Andersen fallback for pointers). *)
let binop (op : Instr.binop) a b =
  match (op, a, b) with
  | Instr.Add, Ptr { oids; off }, Int n | Instr.Add, Int n, Ptr { oids; off }
    ->
      Ptr { oids; off = Option.map (( + ) n) off }
  | Instr.Sub, Ptr { oids; off }, Int n ->
      Ptr { oids; off = Option.map (fun o -> o - n) off }
  | Instr.Add, Addr x, Int n | Instr.Add, Int n, Addr x -> Addr (x + n)
  | Instr.Sub, Addr x, Int n -> Addr (x - n)
  | Instr.And, Ptr { oids; off }, Int mask when mask land (Layout.cache_line - 1) = 0 ->
      (* alignment mask; PM object bases are line-aligned, so masking the
         offset is masking the address *)
      Ptr { oids; off = Option.map (fun o -> o land mask) off }
  | Instr.And, Addr x, Int mask -> Addr (x land mask)
  | (op, Int x, Int y) -> (
      match op with
      | Instr.Add -> Int (x + y)
      | Instr.Sub -> Int (x - y)
      | Instr.Mul -> Int (x * y)
      | Instr.Div -> if y = 0 then Unknown else Int (x / y)
      | Instr.Rem -> if y = 0 then Unknown else Int (x mod y)
      | Instr.And -> Int (x land y)
      | Instr.Or -> Int (x lor y)
      | Instr.Xor -> Int (x lxor y)
      | Instr.Shl -> Int (x lsl y)
      | Instr.Lshr -> Int (x lsr y)
      | Instr.Eq -> Int (Bool.to_int (x = y))
      | Instr.Ne -> Int (Bool.to_int (x <> y))
      | Instr.Lt -> Int (Bool.to_int (x < y))
      | Instr.Le -> Int (Bool.to_int (x <= y))
      | Instr.Gt -> Int (Bool.to_int (x > y))
      | Instr.Ge -> Int (Bool.to_int (x >= y)))
  | _ -> Unknown

let step ctx ~func ~chain st (i : Instr.t) =
  let ev = eval ctx ~func st in
  match Instr.op i with
  | Instr.Store { addr; size; nontemporal; _ } ->
      store ctx st ~iid:(Instr.iid i) ~loc:(Instr.loc i) ~size ~nontemporal
        ~chain (ev addr)
  | Instr.Flush { kind; addr } ->
      flush ctx st ~iid:(Instr.iid i) ~kind (ev addr)
  | Instr.Fence _ -> fence st
  | Instr.Mov { dst; src } -> Absmem.bind st dst (ev src)
  | Instr.Gep { dst; base; offset } ->
      Absmem.bind st dst (binop Instr.Add (ev base) (ev offset))
  | Instr.Binop { dst; op; lhs; rhs } ->
      Absmem.bind st dst (binop op (ev lhs) (ev rhs))
  | Instr.Alloca { dst; _ } -> (
      match Iid.Map.find_opt (Instr.iid i) ctx.site_oid with
      | Some oid ->
          Absmem.bind st dst (Ptr { oids = ISet.singleton oid; off = Some 0 })
      | None -> Absmem.bind st dst Unknown)
  | Instr.Load { dst; _ } ->
      (* loaded values get the Andersen fallback at their next use *)
      Absmem.bind st dst Unknown
  | Instr.Call _ | Instr.Br _ | Instr.Condbr _ | Instr.Ret _ | Instr.Crash ->
      st
