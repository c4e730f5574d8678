(* Metric rows, their three renderings (text line, JSON row, the
   result line), and the statistics the suite reports with. *)

type kind = Wall | Sim | Count

let kind_to_string = function Wall -> "wall" | Sim -> "sim" | Count -> "count"

type row = {
  workload : string;
  metric : string;
  unit_ : string;
  kind : kind;
  value : float;
}

(* End-to-end rows carry the "e2e" layer; a per-layer metric's layer is
   its name up to the first dot. *)
let layer_of ~e2e metric =
  if e2e then "e2e"
  else
    match String.index_opt metric '.' with
    | Some i -> String.sub metric 0 i
    | None -> metric

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float has; the suite refuses non-finite values
   before rendering. *)
let number v = Printf.sprintf "%.17g" v

let text_line r =
  Printf.sprintf "%s %s %s %s" r.workload r.metric (number r.value) r.unit_

let json_row ~e2e r =
  Printf.sprintf
    "{\"workload\":%s,\"layer\":%s,\"metric\":%s,\"unit\":%s,\"kind\":%s,\"value\":%s}"
    (json_string r.workload)
    (json_string (layer_of ~e2e r.metric))
    (json_string r.metric) (json_string r.unit_)
    (json_string (kind_to_string r.kind))
    (number r.value)

let result_line ~correct ~attempted ~failed rows =
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun r ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
              (json_string r.metric) (number r.value) (json_string r.unit_))
          rows))

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Linear interpolation between order statistics (numpy's default), so a
   percentile moves with every sample rather than snapping to one. *)
let percentile (samples : float array) q =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let a = Array.copy samples in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median samples = percentile samples 0.5

(* Peak resident set size (VmHWM), MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
