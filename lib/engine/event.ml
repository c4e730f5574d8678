(* Structured per-stage pipeline events: plain data plus two renderers
   (JSON-lines for --trace-out, an aligned table for bench output). *)

type t = {
  pass : string;
  target : string;
  version : int;
  parallel : int;
      (** domains the stage fanned out over (1 = ran serially) *)
  dur_s : float;
  counters : (string * int) list;
  notes : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* JSON-lines *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_obj fields =
  "{" ^ String.concat "," fields ^ "}"

let to_json e =
  let str k v = Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v) in
  let counters =
    json_obj
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":%d" (json_escape k) v)
         e.counters)
  in
  let notes = json_obj (List.map (fun (k, v) -> str k v) e.notes) in
  json_obj
    [
      str "pass" e.pass;
      str "target" e.target;
      Printf.sprintf "\"version\":%d" e.version;
      Printf.sprintf "\"parallel\":%d" e.parallel;
      Printf.sprintf "\"dur_s\":%.6f" e.dur_s;
      "\"counters\":" ^ counters;
      "\"notes\":" ^ notes;
    ]

let write_jsonl path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (to_json e);
          output_char oc '\n')
        events)

(* ------------------------------------------------------------------ *)
(* Per-phase breakdown table *)

type agg = {
  mutable runs : int;
  mutable total_s : float;
  mutable sums : (string * int) list;  (* summed counters, first-seen order *)
}

let add_counter sums (k, v) =
  if List.mem_assoc k sums then
    List.map (fun (k', v') -> if k' = k then (k', v' + v) else (k', v')) sums
  else sums @ [ (k, v) ]

let aggregate events =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let a =
        match Hashtbl.find_opt tbl e.pass with
        | Some a -> a
        | None ->
            let a = { runs = 0; total_s = 0.0; sums = [] } in
            Hashtbl.add tbl e.pass a;
            order := e.pass :: !order;
            a
      in
      a.runs <- a.runs + 1;
      a.total_s <- a.total_s +. e.dur_s;
      a.sums <- List.fold_left add_counter a.sums e.counters)
    events;
  List.rev_map (fun pass -> (pass, Hashtbl.find tbl pass)) !order

let total_time events = List.fold_left (fun s e -> s +. e.dur_s) 0.0 events

let pp_table ppf events =
  let rows = aggregate events in
  let total = total_time events in
  Fmt.pf ppf "  %-10s %5s %10s %10s  %s@." "pass" "runs" "total(s)" "mean(ms)"
    "counters";
  List.iter
    (fun (pass, a) ->
      let counters =
        String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) a.sums)
      in
      Fmt.pf ppf "  %-10s %5d %10.4f %10.3f  %s@." pass a.runs a.total_s
        (1000.0 *. a.total_s /. float_of_int (max 1 a.runs))
        counters)
    rows;
  Fmt.pf ppf "  %-10s %5d %10.4f@." "(all)" (List.length events) total
