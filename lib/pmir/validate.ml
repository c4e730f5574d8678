(** Structural well-formedness checks for PMIR programs.

    Run before interpretation and after every Hippocrates transformation:
    a repaired program that fails validation would indicate the repair
    engine itself violated "do no harm" at the structural level. *)

type error = { where : string; what : string }

let err where fmt = Fmt.kstr (fun what -> { where; what }) fmt

let pp_error ppf e = Fmt.pf ppf "%s: %s" e.where e.what

let valid_sizes = [ 1; 2; 4; 8 ]

(* A set of names, for O(1) membership. *)
let set_of names =
  let t = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace t n ()) names;
  t

(* Every occurrence of a name that occurs more than once, in order. *)
let duplicates names =
  let seen = Hashtbl.create 64 and dup = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then Hashtbl.replace dup n ()
      else Hashtbl.add seen n ())
    names;
  List.filter (Hashtbl.mem dup) names

let check_func (prog : Program.t) ~globals (f : Func.t) : error list =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let fname = Func.name f in
  let blocks = Func.blocks f in
  (if blocks = [] then add (err fname "function has no blocks"));
  let labels = List.map (fun (b : Func.block) -> b.label) blocks in
  (match duplicates labels with
  | [] -> ()
  | l :: _ -> add (err fname "duplicate block label %S" l));
  let labels = set_of labels and defined = set_of (Func.defined_regs f) in
  let has_label l = Hashtbl.mem labels l in
  let known r = Hashtbl.mem defined r in
  let check_instr ~is_last (i : Instr.t) =
    (* the location is formatted only for an instruction with an error *)
    let add_at fmt =
      Fmt.kstr
        (fun what ->
          add { where = Fmt.str "%s at %a" fname Loc.pp (Instr.loc i); what })
        fmt
    in
    List.iter
      (fun r -> if not (known r) then add_at "use of undefined register %%%s" r)
      (Instr.uses i);
    List.iter
      (function
        | Value.Global g when not (Hashtbl.mem globals g) ->
            add_at "reference to undefined global @%s" g
        | _ -> ())
      (Instr.operands i);
    (match Instr.op i with
    | Store { size; _ } | Load { size; _ } ->
        if not (List.mem size valid_sizes) then
          add_at "invalid access size %d" size
    | Alloca { size; _ } ->
        if size <= 0 then add_at "non-positive alloca size %d" size
    | Call { callee; args; _ } ->
        if (not (Program.mem prog callee)) && not (Program.is_intrinsic callee)
        then add_at "call to undefined function @%s" callee
        else if Program.mem prog callee then (
          let arity = List.length (Func.params (Program.find_exn prog callee)) in
          if List.length args <> arity then
            add_at "call to @%s with %d arguments (expects %d)" callee
              (List.length args) arity)
    | Br { target } ->
        if not (has_label target) then
          add_at "branch to undefined label %S" target
    | Condbr { if_true; if_false; _ } ->
        List.iter
          (fun l ->
            if not (has_label l) then add_at "branch to undefined label %S" l)
          [ if_true; if_false ]
    | _ -> ());
    if Instr.is_terminator i && not is_last then
      add_at "terminator is not the last instruction of its block"
  in
  List.iter
    (fun (b : Func.block) ->
      (match List.rev b.instrs with
      | [] -> add (err fname "block %S is empty (needs a terminator)" b.label)
      | last :: _ ->
          if not (Instr.is_terminator last) then
            add (err fname "block %S does not end in a terminator" b.label));
      let n = List.length b.instrs in
      List.iteri (fun k i -> check_instr ~is_last:(k = n - 1) i) b.instrs)
    blocks;
  List.rev !errors

(** [check prog] returns all well-formedness errors, empty when valid. *)
let check (prog : Program.t) : error list =
  let dup_errors =
    List.map
      (fun n -> err "program" "duplicate function @%s" n)
      (duplicates (Program.func_names prog))
  in
  (* Duplicate instruction identities would silently corrupt fix keying. *)
  let seen = Iid.Tbl.create 1024 in
  let iid_errors = ref [] in
  List.iter
    (fun f ->
      List.iter
        (fun i ->
          let id = Instr.iid i in
          if Iid.Tbl.mem seen id then
            iid_errors :=
              err (Func.name f) "duplicate instruction identity %a" Iid.pp id
              :: !iid_errors
          else Iid.Tbl.add seen id ())
        (Func.instrs f))
    (Program.funcs prog);
  let globals = set_of (List.map fst (Program.globals prog)) in
  dup_errors @ List.rev !iid_errors
  @ List.concat_map (check_func prog ~globals) (Program.funcs prog)

let is_valid prog = check prog = []

exception Invalid of error list

(** [check_exn prog] raises {!Invalid} if the program is malformed. *)
let check_exn prog =
  match check prog with [] -> () | errors -> raise (Invalid errors)
