(** A PMIR program: an ordered collection of functions plus global byte
    buffers. Globals live in volatile memory (the interpreter assigns them
    addresses at startup); persistent memory is obtained dynamically through
    the [pm_alloc] intrinsic, mirroring how PMDK pools are mapped. *)

module SMap = Map.Make (String)

type t = {
  funcs : Func.t SMap.t;
  order : string list;  (** function names in definition order *)
  globals : (string * int) list;  (** name, size in bytes *)
}

let empty = { funcs = SMap.empty; order = []; globals = [] }

let add_func t (f : Func.t) =
  let name = Func.name f in
  let order = if SMap.mem name t.funcs then t.order else t.order @ [ name ] in
  { t with funcs = SMap.add name f t.funcs; order }

let add_global t ~name ~size = { t with globals = t.globals @ [ (name, size) ] }

let of_funcs funcs = List.fold_left add_func empty funcs

let find t name = SMap.find_opt name t.funcs

let find_exn t name =
  match find t name with
  | Some f -> f
  | None -> invalid_arg (Fmt.str "Program.find_exn: no function @%s" name)

let mem t name = SMap.mem name t.funcs

let funcs t = List.map (fun n -> SMap.find n t.funcs) t.order

let globals t = t.globals

let func_names t = t.order

(** [update t f] replaces the function of the same name. *)
let update t (f : Func.t) =
  let name = Func.name f in
  if not (SMap.mem name t.funcs) then
    invalid_arg (Fmt.str "Program.update: no function @%s" name);
  { t with funcs = SMap.add name f t.funcs }

let map_funcs f t =
  List.fold_left (fun acc fn -> update acc (f fn)) t (funcs t)

(** [find_instr t iid] locates an instruction program-wide. *)
let find_instr t (iid : Iid.t) =
  Option.bind (find t (Iid.func iid)) (fun f -> Func.find_instr f iid)

(** Total instruction count — the "lines of IR" metric used for the
    code-size experiments (§6.4). *)
let size t =
  List.fold_left (fun n f -> n + List.length (Func.instrs f)) 0 (funcs t)

let equal_modulo_iid a b =
  List.equal String.equal a.order b.order
  && List.equal
       (fun (n1, s1) (n2, s2) -> String.equal n1 n2 && s1 = s2)
       a.globals b.globals
  && List.for_all2 Func.equal_modulo_iid (funcs a) (funcs b)

(** Intrinsic functions understood directly by the machine (they have no
    PMIR body), each with the number of arguments it takes. *)
let intrinsics =
  [
    ("pm_alloc", 1);
    ("pm_base", 0);
    ("pm_size", 0);
    ("malloc", 1);
    ("free", 1);
    ("emit", 1);
    ("abort", 0);
  ]

let is_intrinsic name = List.mem_assoc name intrinsics
