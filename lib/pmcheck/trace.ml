(** PM operation traces.

    The contract between bug finder and repair tool (paper §4.1): every
    event carries the instruction identity, the source location, and the
    call stack at the time of the event. pmemcheck produces exactly this;
    Hippocrates consumes it to locate bugs in the IR and to compute
    interprocedural fix candidates. *)

open Hippo_pmir

type frame = {
  func : string;
  callsite : Iid.t option;
      (** the call instruction, in the caller, that created this frame;
          [None] for the host-invoked entry frame *)
  callsite_loc : Loc.t option;
}

type stack = frame list
(** innermost frame first *)

type arg_class = Pm_ptr | Vol_ptr | Not_ptr

type event =
  | Store of {
      iid : Iid.t;
      loc : Loc.t;
      stack : stack;
      addr : int;
      size : int;
      nontemporal : bool;
      seq : int;
    }
  | Flush of {
      iid : Iid.t;
      loc : Loc.t;
      stack : stack;
      kind : Instr.flush_kind;
      line_addr : int;
      seq : int;
    }
  | Fence of {
      iid : Iid.t;
      loc : Loc.t;
      stack : stack;
      kind : Instr.fence_kind;
      seq : int;
    }
  | Call of {
      iid : Iid.t;
      loc : Loc.t;
      stack : stack;
      callee : string;
      arg_classes : arg_class list;
      seq : int;
    }
  | Crash_point of { iid : Iid.t option; loc : Loc.t; stack : stack; seq : int }
      (** [iid = None] denotes the implicit crash point at program exit *)

let seq = function
  | Store { seq; _ } | Flush { seq; _ } | Fence { seq; _ } | Call { seq; _ }
  | Crash_point { seq; _ } ->
      seq

let stack_of = function
  | Store { stack; _ } | Flush { stack; _ } | Fence { stack; _ }
  | Call { stack; _ } | Crash_point { stack; _ } ->
      stack

(* Serialization: one event per line, ';'-separated fields, pmemcheck
   style. Stacks are rendered innermost-first, '<'-separated. *)

let frame_to_string f =
  match (f.callsite, f.callsite_loc) with
  | Some iid, Some loc -> Fmt.str "%s[%a|%a]" f.func Iid.pp iid Loc.pp loc
  | _ -> f.func

let stack_to_string (s : stack) =
  String.concat "<" (List.map frame_to_string s)

let arg_class_to_string = function
  | Pm_ptr -> "pm"
  | Vol_ptr -> "vol"
  | Not_ptr -> "int"

let arg_class_of_string = function
  | "pm" -> Some Pm_ptr
  | "vol" -> Some Vol_ptr
  | "int" -> Some Not_ptr
  | _ -> None

let to_line = function
  | Store { iid; loc; stack; addr; size; nontemporal; seq } ->
      Fmt.str "STORE;%d;%a;%a;0x%x;%d;%b;%s" seq Iid.pp iid Loc.pp loc addr
        size nontemporal (stack_to_string stack)
  | Flush { iid; loc; stack; kind; line_addr; seq } ->
      Fmt.str "FLUSH;%d;%a;%a;%s;0x%x;%s" seq Iid.pp iid Loc.pp loc
        (Instr.flush_kind_to_string kind)
        line_addr (stack_to_string stack)
  | Fence { iid; loc; stack; kind; seq } ->
      Fmt.str "FENCE;%d;%a;%a;%s;%s" seq Iid.pp iid Loc.pp loc
        (Instr.fence_kind_to_string kind)
        (stack_to_string stack)
  | Call { iid; loc; stack; callee; arg_classes; seq } ->
      Fmt.str "CALL;%d;%a;%a;%s;%s;%s" seq Iid.pp iid Loc.pp loc callee
        (String.concat "," (List.map arg_class_to_string arg_classes))
        (stack_to_string stack)
  | Crash_point { iid; loc; stack; seq } ->
      Fmt.str "CRASH;%d;%s;%a;%s" seq
        (match iid with Some i -> Iid.to_string i | None -> "exit")
        Loc.pp loc (stack_to_string stack)

(* Parsing: {!Tracefile} reads on-disk traces line by line. *)

exception Bad_trace of string

let bad fmt = Fmt.kstr (fun m -> raise (Bad_trace m)) fmt

let parse_iid s =
  match String.rindex_opt s '#' with
  | None -> bad "bad iid %S" s
  | Some i -> (
      let func = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some serial -> Iid.of_serial ~func serial
      | None -> bad "bad iid %S" s)

let parse_loc s =
  match String.rindex_opt s ':' with
  | None -> bad "bad location %S" s
  | Some i -> (
      let file = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some line -> Loc.make ~file ~line
      | None -> bad "bad location %S" s)

let parse_frame s =
  match String.index_opt s '[' with
  | None -> { func = s; callsite = None; callsite_loc = None }
  | Some i ->
      let func = String.sub s 0 i in
      if String.length s < i + 2 || s.[String.length s - 1] <> ']' then
        bad "bad frame %S" s;
      let inner = String.sub s (i + 1) (String.length s - i - 2) in
      (match String.index_opt inner '|' with
      | None -> bad "bad frame %S" s
      | Some j ->
          let iid = parse_iid (String.sub inner 0 j) in
          let loc = parse_loc (String.sub inner (j + 1) (String.length inner - j - 1)) in
          { func; callsite = Some iid; callsite_loc = Some loc })

let parse_stack s =
  if s = "" then [] else List.map parse_frame (String.split_on_char '<' s)

let parse_int s =
  match int_of_string_opt s with Some n -> n | None -> bad "bad integer %S" s

let parse_bool s =
  match bool_of_string_opt s with Some b -> b | None -> bad "bad bool %S" s

let of_line line =
  match String.split_on_char ';' line with
  | [ "STORE"; seq; iid; loc; addr; size; nt; stack ] ->
      Store
        {
          iid = parse_iid iid;
          loc = parse_loc loc;
          stack = parse_stack stack;
          addr = parse_int addr;
          size = parse_int size;
          nontemporal = parse_bool nt;
          seq = parse_int seq;
        }
  | [ "FLUSH"; seq; iid; loc; kind; addr; stack ] ->
      let kind =
        match Instr.flush_kind_of_string kind with
        | Some k -> k
        | None -> bad "bad flush kind %S" kind
      in
      Flush
        {
          iid = parse_iid iid;
          loc = parse_loc loc;
          stack = parse_stack stack;
          kind;
          line_addr = parse_int addr;
          seq = parse_int seq;
        }
  | [ "FENCE"; seq; iid; loc; kind; stack ] ->
      let kind =
        match Instr.fence_kind_of_string kind with
        | Some k -> k
        | None -> bad "bad fence kind %S" kind
      in
      Fence
        {
          iid = parse_iid iid;
          loc = parse_loc loc;
          stack = parse_stack stack;
          kind;
          seq = parse_int seq;
        }
  | [ "CALL"; seq; iid; loc; callee; argcls; stack ] ->
      let arg_classes =
        if argcls = "" then []
        else
          List.map
            (fun s ->
              match arg_class_of_string s with
              | Some c -> c
              | None -> bad "bad arg class %S" s)
            (String.split_on_char ',' argcls)
      in
      Call
        {
          iid = parse_iid iid;
          loc = parse_loc loc;
          stack = parse_stack stack;
          callee;
          arg_classes;
          seq = parse_int seq;
        }
  | [ "CRASH"; seq; iid; loc; stack ] ->
      Crash_point
        {
          iid = (if iid = "exit" then None else Some (parse_iid iid));
          loc = parse_loc loc;
          stack = parse_stack stack;
          seq = parse_int seq;
        }
  | _ -> bad "unparseable trace line %S" line
