(* Span recorder: per-name aggregates always, stored spans on request.
   Times are monotonic-clock ns. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable int array. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }
  let clear b = b.n <- 0

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

type name = int

type agg = {
  mutable calls : int;
  mutable total : int;
  mutable self : int;
  durs : Ibuf.t;
}

let names : (string, int) Hashtbl.t = Hashtbl.create 64
let labels : string array ref = ref [||]
let aggs : agg array ref = ref [||]

let name s =
  match Hashtbl.find_opt names s with
  | Some n -> n
  | None ->
      let n = Hashtbl.length names in
      Hashtbl.add names s n;
      labels := Array.append !labels [| s |];
      aggs :=
        Array.append !aggs
          [| { calls = 0; total = 0; self = 0; durs = Ibuf.create () } |];
      n

let to_string n = !labels.(n)

(* The open-span stack. *)
let max_depth = 64
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_id = Array.make max_depth (-1)
let st_rec = Array.make max_depth (-1)
let depth = ref 0
let on = ref false
let roots = ref 0

(* Stored spans, struct-of-arrays, capped. *)
let store = ref false
let cap = 1_000_000
let dropped = ref 0
let r_name = Ibuf.create ()
let r_start = Ibuf.create ()
let r_stop = Ibuf.create ()
let r_parent = Ibuf.create ()
let r_id = Ibuf.create ()

let start ~store:s =
  Array.iter
    (fun a ->
      a.calls <- 0;
      a.total <- 0;
      a.self <- 0;
      Ibuf.clear a.durs)
    !aggs;
  List.iter Ibuf.clear [ r_name; r_start; r_stop; r_parent; r_id ];
  store := s;
  dropped := 0;
  roots := 0;
  depth := 0

let set_on b =
  assert (!depth = 0);
  on := b

let is_on () = !on
let parent_rec () = if !depth = 0 then -1 else st_rec.(!depth - 1)
let current_id () = if !depth = 0 then -1 else st_id.(!depth - 1)

let new_record n ~start ~id =
  if not !store then -1
  else if r_name.Ibuf.n >= cap then begin
    incr dropped;
    -1
  end
  else begin
    let i = r_name.Ibuf.n in
    Ibuf.push r_name n;
    Ibuf.push r_start start;
    Ibuf.push r_stop start;
    Ibuf.push r_parent (parent_rec ());
    Ibuf.push r_id id;
    i
  end

(* Account a finished span of [dur] ns whose children covered [child]. *)
let account n ~dur ~child =
  let a = !aggs.(n) in
  a.calls <- a.calls + 1;
  a.total <- a.total + dur;
  a.self <- a.self + (dur - child);
  Ibuf.push a.durs dur;
  if !depth = 0 then roots := !roots + dur
  else st_child.(!depth - 1) <- st_child.(!depth - 1) + dur

let leave n =
  let stop = now_ns () in
  decr depth;
  let d = !depth in
  let dur = stop - st_start.(d) in
  if st_rec.(d) >= 0 then r_stop.Ibuf.a.(st_rec.(d)) <- stop;
  account n ~dur ~child:st_child.(d)

let span n ?id f =
  if not !on then f ()
  else begin
    let id = match id with Some i -> i | None -> current_id () in
    let d = !depth in
    if d = max_depth then invalid_arg "Span.span: nesting too deep";
    let start = now_ns () in
    st_rec.(d) <- new_record n ~start ~id;
    st_start.(d) <- start;
    st_child.(d) <- 0;
    st_id.(d) <- id;
    depth := d + 1;
    match f () with
    | v ->
        leave n;
        v
    | exception e ->
        leave n;
        raise e
  end

let finished n ~dur_ns =
  if !on then begin
    let stop = now_ns () in
    let i = new_record n ~start:(stop - dur_ns) ~id:(current_id ()) in
    if i >= 0 then r_stop.Ibuf.a.(i) <- stop;
    account n ~dur:dur_ns ~child:0
  end

type stats = { calls : int; total_ns : int; self_ns : int; durs_ns : int array }

let stats n =
  let a = !aggs.(n) in
  {
    calls = a.calls;
    total_ns = a.total;
    self_ns = a.self;
    durs_ns = Ibuf.to_array a.durs;
  }

let root_ns () = !roots

let write_jsonl path ~label =
  let oc = open_out path in
  let n = r_name.Ibuf.n in
  for i = 0 to n - 1 do
    Printf.fprintf oc
      "{\"span\":%d,\"name\":%s,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"id\":%s}\n"
      i
      (Metric.json_string (to_string r_name.Ibuf.a.(i)))
      r_start.Ibuf.a.(i) r_stop.Ibuf.a.(i) r_parent.Ibuf.a.(i)
      (Metric.json_string (label r_id.Ibuf.a.(i)))
  done;
  close_out oc;
  (n, !dropped)
