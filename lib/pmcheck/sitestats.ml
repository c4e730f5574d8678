(** Aggregated per-site pointer-class observations.

    For each store instruction (key index [-1] = the address operand) and
    each call-site argument position, how many dynamic executions saw a
    persistent pointer and how many saw a volatile pointer. This is the
    dynamic counterpart of the static alias counts: the Trace-AA heuristic
    variant (paper §6.1) scores fix candidates from these counters alone,
    with no static analysis. *)

open Hippo_pmir

type obs = { mutable pm : int; mutable vol : int }

type key = { site : Iid.t; arg : int }

module KTbl = Hashtbl.Make (struct
  type t = key

  let equal a b = a.arg = b.arg && Iid.equal a.site b.site
  let hash k = Hashtbl.hash (Iid.hash k.site, k.arg)
end)

type t = obs KTbl.t

(* Every machine makes one, but only trace-on runs observe a site, and
   the table grows as they do: start small. *)
let create () : t = KTbl.create 16

let observe (t : t) ~site ~arg (cls : Trace.arg_class) =
  match cls with
  | Trace.Not_ptr -> ()
  | _ ->
      let key = { site; arg } in
      let o =
        match KTbl.find_opt t key with
        | Some o -> o
        | None ->
            let o = { pm = 0; vol = 0 } in
            KTbl.add t key o;
            o
      in
      (match cls with
      | Trace.Pm_ptr -> o.pm <- o.pm + 1
      | Trace.Vol_ptr -> o.vol <- o.vol + 1
      | Trace.Not_ptr -> ())

let find (t : t) ~site ~arg = KTbl.find_opt t { site; arg }

let fold f (t : t) acc = KTbl.fold (fun k o acc -> f k o acc) t acc

(* Serialization: "STAT;<iid>;<arg>;<pm>;<vol>" lines appended after the
   event log in a trace file. *)

let to_lines (t : t) =
  fold
    (fun k o acc ->
      Fmt.str "STAT;%a;%d;%d;%d" Iid.pp k.site k.arg o.pm o.vol :: acc)
    t []
  |> List.sort String.compare

let of_lines lines : t =
  let t = create () in
  List.iter
    (fun line ->
      match String.split_on_char ';' line with
      | [ "STAT"; iid; arg; pm; vol ] ->
          KTbl.replace t
            { site = Trace.parse_iid iid; arg = Trace.parse_int arg }
            { pm = Trace.parse_int pm; vol = Trace.parse_int vol }
      | _ -> Trace.bad "unparseable stat line %S" line)
    lines;
  t
