(** Andersen-style inclusion-based points-to analysis over PMIR.

    The original Hippocrates uses a whole-program Andersen analysis (Jia
    Chen's LLVM implementation) to drive its interprocedural fix heuristic
    (paper §4.3). This is the same algorithm: flow-insensitive,
    context-insensitive, field-insensitive, with one abstract object per
    allocation site and a single "contents" node per object.

    Abstract objects carry provenance: objects born at [pm_alloc] call
    sites (or [pm_base]) are persistent, everything else — [alloca] sites,
    [malloc] sites, globals — is volatile. The heuristic's "PM alias" /
    "non-PM alias" counts are counts of persistent/volatile objects in a
    pointer's points-to set. *)

open Hippo_pmir

type obj = {
  oid : int;
  site : [ `Alloca of Iid.t | `Malloc of Iid.t | `Pm_alloc of Iid.t
         | `Pm_region | `Global of string ];
}

let obj_is_pm o = match o.site with `Pm_alloc _ | `Pm_region -> true | _ -> false

(* Constraint-graph nodes: one per (function, register), one per function
   return value, one "contents" node per abstract object. *)
type node =
  | Var of string * string  (** function, register *)
  | Retval of string  (** function name *)
  | Contents of int  (** object id *)

module NodeKey = struct
  type t = node

  let equal a b =
    match (a, b) with
    | Var (f1, r1), Var (f2, r2) -> String.equal f1 f2 && String.equal r1 r2
    | Retval f1, Retval f2 -> String.equal f1 f2
    | Contents o1, Contents o2 -> Int.equal o1 o2
    | (Var _ | Retval _ | Contents _), _ -> false

  let hash = Hashtbl.hash
end

module NTbl = Hashtbl.Make (NodeKey)

module ISet = Set.Make (Int)

type t = {
  objects : obj array;
  points_to : ISet.t NTbl.t;  (** solved points-to sets (object ids) *)
}

(* Solver state: for each node, its current points-to set, its copy-edge
   successors, and the load/store constraints deferred until the set
   grows. Difference propagation: [delta] holds the objects added to a
   node's set since the node was last processed, and the solver applies
   constraints to the delta only — each object crosses each edge once,
   instead of the whole set being re-unioned on every visit. [queued]
   keeps a node from being enqueued twice while it waits. *)
type solver = {
  mutable objs : obj list;
  mutable nobj : int;
  pts : ISet.t ref NTbl.t;
  delta : ISet.t ref NTbl.t;  (** unprocessed recent additions to pts *)
  queued : unit NTbl.t;  (** nodes currently on the worklist *)
  succs : node list ref NTbl.t;
  (* [dst = *src]: when o enters pts(src), add edge Contents o -> dst *)
  load_cons : node list ref NTbl.t;
  (* [*dst = src]: when o enters pts(dst), add edge src -> Contents o *)
  store_cons : node list ref NTbl.t;
  mutable worklist : node list;
}

let get tbl key =
  match NTbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r = ref [] in
      NTbl.add tbl key r;
      r

let get_pts s key =
  match NTbl.find_opt s.pts key with
  | Some r -> r
  | None ->
      let r = ref ISet.empty in
      NTbl.add s.pts key r;
      r

let new_obj s site =
  let o = { oid = s.nobj; site } in
  s.nobj <- s.nobj + 1;
  s.objs <- o :: s.objs;
  o

let get_delta s key =
  match NTbl.find_opt s.delta key with
  | Some r -> r
  | None ->
      let r = ref ISet.empty in
      NTbl.add s.delta key r;
      r

let enqueue s node =
  if not (NTbl.mem s.queued node) then begin
    NTbl.replace s.queued node ();
    s.worklist <- node :: s.worklist
  end

(* Additions land in both pts and the node's delta; a node already waiting
   on the worklist just accumulates more delta instead of a second entry. *)
let add_to_pts s node oid =
  let r = get_pts s node in
  if not (ISet.mem oid !r) then begin
    r := ISet.add oid !r;
    let d = get_delta s node in
    d := ISet.add oid !d;
    enqueue s node
  end

let add_set_to_pts s node set =
  let r = get_pts s node in
  let fresh = ISet.diff set !r in
  if not (ISet.is_empty fresh) then begin
    r := ISet.union !r fresh;
    let d = get_delta s node in
    d := ISet.union !d fresh;
    enqueue s node
  end

let add_edge s src dst =
  let es = get s.succs src in
  if not (List.exists (NodeKey.equal dst) !es) then begin
    es := dst :: !es;
    (* a new edge must carry the source's full current set once; deltas
       cover everything that arrives later *)
    add_set_to_pts s dst !(get_pts s src)
  end

(* Constraint generation --------------------------------------------------- *)

let gen_func s (prog : Program.t) (f : Func.t) =
  let fname = Func.name f in
  let var r = Var (fname, r) in
  let value_node (v : Value.t) : node option =
    match v with
    | Value.Reg r -> Some (var r)
    | Value.Global g ->
        (* The global's address value: points to the global object. *)
        let nd = Var ("<globals>", g) in
        (match NTbl.find_opt s.pts nd with
        | Some _ -> ()
        | None ->
            let o =
              match
                List.find_opt
                  (fun ob -> ob.site = `Global g)
                  s.objs
              with
              | Some ob -> ob
              | None -> new_obj s (`Global g)
            in
            add_to_pts s nd o.oid);
        Some nd
    | Value.Imm _ | Value.Null -> None
  in
  let copy_into dst v =
    match value_node v with Some n -> add_edge s n dst | None -> ()
  in
  List.iter
    (fun (i : Instr.t) ->
      match Instr.op i with
      | Instr.Mov { dst; src } -> copy_into (var dst) src
      | Instr.Gep { dst; base; offset } ->
          copy_into (var dst) base;
          (* Pointers occasionally flow through the offset operand in
             hand-written address arithmetic; stay conservative. *)
          copy_into (var dst) offset
      | Instr.Binop { dst; op = _; lhs; rhs } ->
          copy_into (var dst) lhs;
          copy_into (var dst) rhs
      | Instr.Alloca { dst; _ } ->
          let o = new_obj s (`Alloca (Instr.iid i)) in
          add_to_pts s (var dst) o.oid
      | Instr.Load { dst; addr; _ } -> (
          match value_node addr with
          | Some a ->
              let lc = get s.load_cons a in
              lc := var dst :: !lc;
              (* apply to already-known objects *)
              ISet.iter
                (fun oid -> add_edge s (Contents oid) (var dst))
                !(get_pts s a)
          | None -> ())
      | Instr.Store { addr; value; _ } -> (
          match (value_node addr, value_node value) with
          | Some a, Some v ->
              let sc = get s.store_cons a in
              sc := v :: !sc;
              ISet.iter (fun oid -> add_edge s v (Contents oid)) !(get_pts s a)
          | _ -> ())
      | Instr.Call { dst; callee; args } -> (
          match callee with
          | "pm_alloc" ->
              Option.iter
                (fun d ->
                  let o = new_obj s (`Pm_alloc (Instr.iid i)) in
                  add_to_pts s (var d) o.oid)
                dst
          | "pm_base" ->
              Option.iter
                (fun d ->
                  let o =
                    match
                      List.find_opt (fun ob -> ob.site = `Pm_region) s.objs
                    with
                    | Some ob -> ob
                    | None -> new_obj s `Pm_region
                  in
                  add_to_pts s (var d) o.oid)
                dst
          | "malloc" ->
              Option.iter
                (fun d ->
                  let o = new_obj s (`Malloc (Instr.iid i)) in
                  add_to_pts s (var d) o.oid)
                dst
          | _ when Program.is_intrinsic callee -> ()
          | _ -> (
              match Program.find prog callee with
              | None -> ()
              | Some cf ->
                  let cname = Func.name cf in
                  List.iteri
                    (fun k arg ->
                      match List.nth_opt (Func.params cf) k with
                      | Some p -> copy_into (Var (cname, p)) arg
                      | None -> ())
                    args;
                  Option.iter
                    (fun d -> add_edge s (Retval cname) (var d))
                    dst))
      | Instr.Ret (Some v) -> copy_into (Retval fname) v
      | Instr.Ret None | Instr.Br _ | Instr.Condbr _ | Instr.Fence _
      | Instr.Flush _ | Instr.Crash ->
          ())
    (Func.instrs f)

(* Worklist solving -------------------------------------------------------- *)

let solve s =
  let rec loop () =
    match s.worklist with
    | [] -> ()
    | n :: rest ->
        s.worklist <- rest;
        NTbl.remove s.queued n;
        (* only the objects added since n was last processed; everything
           older already crossed these edges *)
        let d = get_delta s n in
        let nd = !d in
        d := ISet.empty;
        if not (ISet.is_empty nd) then begin
          (* complex constraints indexed on n *)
          (match NTbl.find_opt s.load_cons n with
          | Some lc ->
              ISet.iter
                (fun oid -> List.iter (add_edge s (Contents oid)) !lc)
                nd
          | None -> ());
          (match NTbl.find_opt s.store_cons n with
          | Some sc ->
              List.iter
                (fun v -> ISet.iter (fun oid -> add_edge s v (Contents oid)) nd)
                !sc
          | None -> ());
          (* copy edges *)
          match NTbl.find_opt s.succs n with
          | Some es -> List.iter (fun dst -> add_set_to_pts s dst nd) !es
          | None -> ()
        end;
        loop ()
  in
  loop ()

(** [analyze prog] runs the whole-program analysis. *)
let analyze (prog : Program.t) : t =
  let s =
    {
      objs = [];
      nobj = 0;
      pts = NTbl.create 1024;
      delta = NTbl.create 1024;
      queued = NTbl.create 256;
      succs = NTbl.create 1024;
      load_cons = NTbl.create 256;
      store_cons = NTbl.create 256;
      worklist = [];
    }
  in
  List.iter (gen_func s prog) (Program.funcs prog);
  solve s;
  let objects = Array.make s.nobj { oid = 0; site = `Pm_region } in
  List.iter (fun o -> objects.(o.oid) <- o) s.objs;
  let points_to = NTbl.create (NTbl.length s.pts) in
  NTbl.iter (fun k v -> NTbl.replace points_to k !v) s.pts;
  { objects; points_to }

(* Queries ----------------------------------------------------------------- *)

let points_to t node =
  match NTbl.find_opt t.points_to node with
  | Some set -> set
  | None -> ISet.empty

(** All abstract objects, in oid order — lets clients (the static checker)
    index allocation sites without re-deriving them from the program. *)
let objects t = Array.to_list t.objects

let points_to_var t ~func ~reg = points_to t (Var (func, reg))

let obj t oid = t.objects.(oid)

(** [pm_count t node] and [vol_count t node]: persistent and volatile
    objects in the node's points-to set — the alias counts of §4.3. *)
let pm_count t node =
  ISet.cardinal (ISet.filter (fun oid -> obj_is_pm t.objects.(oid)) (points_to t node))

let vol_count t node =
  ISet.cardinal
    (ISet.filter (fun oid -> not (obj_is_pm t.objects.(oid))) (points_to t node))

(** A value may point into persistent memory. *)
let may_be_pm t ~func (v : Value.t) =
  match v with
  | Value.Reg r -> pm_count t (Var (func, r)) > 0
  | Value.Global _ -> false
  | Value.Imm n -> Hippo_pmcheck.Layout.is_pm n
  | Value.Null -> false

(** A value is a pointer at all (nonempty points-to set). *)
let is_pointer t ~func (v : Value.t) =
  match v with
  | Value.Reg r -> not (ISet.is_empty (points_to t (Var (func, r))))
  | Value.Global _ -> true
  | Value.Imm n ->
      Hippo_pmcheck.Layout.is_pm n || Hippo_pmcheck.Layout.is_volatile_ptr n
  | Value.Null -> false
