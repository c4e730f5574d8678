(** The wire protocol: length-prefixed binary frames.

    Every message is one frame: a big-endian u32 payload length followed
    by the payload; the first payload byte is the message tag. Requests
    use tags 1–6, replies 0x80–0x87, so a stream position can never
    confuse the two directions. Integers are big-endian; key lengths are
    u16, value lengths u32, counters u64 (stored in OCaml ints, so
    counts stay below 2^62 — far beyond any run here).

    Decoding is incremental: [decode_request]/[decode_reply] take a
    buffer and an offset and either consume exactly one frame or report
    [Truncated] (the caller should read more bytes), [Oversized] (the
    declared length exceeds {!max_payload} — a protocol violation, close
    the connection) or [Malformed] (a complete frame whose payload does
    not parse). A complete frame with a short payload is [Malformed],
    never [Truncated]: the length prefix is the framing authority. *)

type request =
  | Set of { key : string; value : string }
  | Get of { key : string }
  | Del of { key : string }
  | Scan of { key : string; len : int }
  | Count
  | Stats

(** Operation kinds, indexing the per-kind counters in {!server_stats}
    (and in [Metrics]). *)
type op_kind = KSet | KGet | KDel | KScan | KCount | KStats

let nkinds = 6

let kind_index = function
  | KSet -> 0
  | KGet -> 1
  | KDel -> 2
  | KScan -> 3
  | KCount -> 4
  | KStats -> 5

let kind_name = function
  | KSet -> "set"
  | KGet -> "get"
  | KDel -> "del"
  | KScan -> "scan"
  | KCount -> "count"
  | KStats -> "stats"

let kind_of_index = function
  | 0 -> KSet
  | 1 -> KGet
  | 2 -> KDel
  | 3 -> KScan
  | 4 -> KCount
  | 5 -> KStats
  | _ -> invalid_arg "Protocol.kind_of_index"

let kind_of_request = function
  | Set _ -> KSet
  | Get _ -> KGet
  | Del _ -> KDel
  | Scan _ -> KScan
  | Count -> KCount
  | Stats -> KStats

(** The STATS payload: total ops served, per-kind counts (indexed by
    {!kind_index}), and the simulated-latency histogram. *)
type server_stats = {
  ops : int;
  kind_counts : int array;  (** length {!nkinds} *)
  hist : Hippo_perfmodel.Stats.Hist.t;
}

type reply =
  | Ok_
  | Value of string
  | Not_found
  | Deleted of bool
  | Unsupported
  | Count_is of int
  | Stats_are of server_stats
  | Err of string

type error = Truncated | Oversized of int | Malformed of string

let pp_error ppf = function
  | Truncated -> Fmt.pf ppf "truncated frame"
  | Oversized n -> Fmt.pf ppf "oversized frame (%d bytes)" n
  | Malformed m -> Fmt.pf ppf "malformed frame: %s" m

let max_payload = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Encoding *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let add_u16 b v =
  if v < 0 || v > 0xFFFF then invalid_arg "Protocol: u16 out of range";
  add_u8 b (v lsr 8);
  add_u8 b v

let add_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Protocol: u32 out of range";
  add_u8 b (v lsr 24);
  add_u8 b (v lsr 16);
  add_u8 b (v lsr 8);
  add_u8 b v

let add_u64 b v =
  if v < 0 then invalid_arg "Protocol: u64 out of range";
  for byte = 7 downto 0 do
    add_u8 b (v lsr (byte * 8))
  done

let add_short_string b s =
  add_u16 b (String.length s);
  Buffer.add_string b s

let add_long_string b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

(* Prefix a payload with its u32 length. *)
let frame payload =
  let n = String.length payload in
  if n > max_payload then invalid_arg "Protocol: frame exceeds max_payload";
  let b = Buffer.create (n + 4) in
  add_u32 b n;
  Buffer.add_string b payload;
  Buffer.contents b

let encode_request (r : request) : string =
  let b = Buffer.create 64 in
  (match r with
  | Set { key; value } ->
      add_u8 b 1;
      add_short_string b key;
      add_long_string b value
  | Get { key } ->
      add_u8 b 2;
      add_short_string b key
  | Del { key } ->
      add_u8 b 3;
      add_short_string b key
  | Scan { key; len } ->
      add_u8 b 4;
      add_short_string b key;
      add_u32 b len
  | Count -> add_u8 b 5
  | Stats -> add_u8 b 6);
  frame (Buffer.contents b)

let encode_reply (r : reply) : string =
  let b = Buffer.create 64 in
  (match r with
  | Ok_ -> add_u8 b 0x80
  | Value v ->
      add_u8 b 0x81;
      add_long_string b v
  | Not_found -> add_u8 b 0x82
  | Deleted d ->
      add_u8 b 0x83;
      add_u8 b (if d then 1 else 0)
  | Unsupported -> add_u8 b 0x84
  | Count_is n ->
      add_u8 b 0x85;
      add_u64 b n
  | Stats_are s ->
      add_u8 b 0x86;
      add_u64 b s.ops;
      if Array.length s.kind_counts <> nkinds then
        invalid_arg "Protocol: kind_counts length";
      Array.iter (add_u64 b) s.kind_counts;
      let pairs = Hippo_perfmodel.Stats.Hist.buckets s.hist in
      add_u32 b (List.length pairs);
      List.iter
        (fun (i, c) ->
          add_u16 b i;
          add_u64 b c)
        pairs
  | Err msg -> (
      add_u8 b 0x87;
      add_short_string b msg));
  frame (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Decoding *)

exception Short
exception Bad of string

type cursor = { s : string; mutable p : int; limit : int }

let u8 c =
  if c.p >= c.limit then raise Short;
  let v = Char.code c.s.[c.p] in
  c.p <- c.p + 1;
  v

let u16 c =
  let a = u8 c in
  let b = u8 c in
  (a lsl 8) lor b

let u32 c =
  let a = u16 c in
  let b = u16 c in
  (a lsl 16) lor b

let u64 c =
  let v = ref 0 in
  for _ = 1 to 8 do
    let byte = u8 c in
    if !v lsr 54 <> 0 then raise (Bad "u64 exceeds OCaml int range");
    v := (!v lsl 8) lor byte
  done;
  !v

let take c n =
  if n < 0 || c.p + n > c.limit then raise Short;
  let s = String.sub c.s c.p n in
  c.p <- c.p + n;
  s

let short_string c = take c (u16 c)
let long_string c = take c (u32 c)

let decode_request_payload c : request =
  match u8 c with
  | 1 ->
      let key = short_string c in
      let value = long_string c in
      Set { key; value }
  | 2 -> Get { key = short_string c }
  | 3 -> Del { key = short_string c }
  | 4 ->
      let key = short_string c in
      let len = u32 c in
      Scan { key; len }
  | 5 -> Count
  | 6 -> Stats
  | t -> raise (Bad (Fmt.str "unknown request tag 0x%02x" t))

let decode_reply_payload c : reply =
  match u8 c with
  | 0x80 -> Ok_
  | 0x81 -> Value (long_string c)
  | 0x82 -> Not_found
  | 0x83 -> (
      match u8 c with
      | 0 -> Deleted false
      | 1 -> Deleted true
      | v -> raise (Bad (Fmt.str "bad Deleted flag %d" v)))
  | 0x84 -> Unsupported
  | 0x85 -> Count_is (u64 c)
  | 0x86 ->
      let ops = u64 c in
      let kind_counts = Array.init nkinds (fun _ -> u64 c) in
      let npairs = u32 c in
      let pairs =
        List.init npairs (fun _ ->
            let i = u16 c in
            let n = u64 c in
            (i, n))
      in
      let hist =
        try Hippo_perfmodel.Stats.Hist.of_buckets pairs
        with Invalid_argument m -> raise (Bad m)
      in
      Stats_are { ops; kind_counts; hist }
  | 0x87 -> Err (short_string c)
  | t -> raise (Bad (Fmt.str "unknown reply tag 0x%02x" t))

(* Decode one frame starting at [pos]; [payload] parses the body. *)
let decode_frame payload buf ~pos : ('a * int, error) result =
  let avail = String.length buf - pos in
  if avail < 4 then Error Truncated
  else
    let header = { s = buf; p = pos; limit = String.length buf } in
    let len = u32 header in
    if len > max_payload then Error (Oversized len)
    else if avail < 4 + len then Error Truncated
    else
      let c = { s = buf; p = pos + 4; limit = pos + 4 + len } in
      match payload c with
      | v ->
          if c.p <> c.limit then
            Error (Malformed "trailing bytes in payload")
          else Ok (v, pos + 4 + len)
      | exception Short -> Error (Malformed "payload shorter than declared")
      | exception Bad m -> Error (Malformed m)

let decode_request buf ~pos = decode_frame decode_request_payload buf ~pos
let decode_reply buf ~pos = decode_frame decode_reply_payload buf ~pos
