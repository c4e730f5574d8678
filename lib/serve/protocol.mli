(** The wire protocol: length-prefixed binary frames.

    Every message is one frame: a big-endian u32 payload length followed
    by the payload; the first payload byte is the message tag (requests
    1–6, replies 0x80–0x87). Integers are big-endian; key lengths are
    u16, value lengths u32, counters u64.

    Decoding is incremental: the decoders take a buffer and an offset
    and either consume exactly one frame or report [Truncated] (read
    more bytes), [Oversized] (protocol violation — close the
    connection), or [Malformed] (a complete frame whose payload does not
    parse; a short payload inside a complete frame is malformed, never
    truncated — the length prefix is the framing authority). *)

type request =
  | Set of { key : string; value : string }
  | Get of { key : string }
  | Del of { key : string }
  | Scan of { key : string; len : int }
  | Count
  | Stats

(** Operation kinds, indexing the per-kind counters in {!server_stats}. *)
type op_kind = KSet | KGet | KDel | KScan | KCount | KStats

val nkinds : int
val kind_index : op_kind -> int
val kind_name : op_kind -> string

(** Raises [Invalid_argument] outside [0..nkinds-1]. *)
val kind_of_index : int -> op_kind

val kind_of_request : request -> op_kind

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

val pp_error : Format.formatter -> error -> unit

(** Maximum payload bytes per frame (1 MiB). *)
val max_payload : int

(** Encoders produce a complete frame (length prefix included). They
    raise [Invalid_argument] when a field exceeds its wire width or the
    frame exceeds {!max_payload}. *)
val encode_request : request -> string

val encode_reply : reply -> string

(** [decode_request buf ~pos] consumes one frame starting at [pos] and
    returns the message plus the offset just past the frame. *)
val decode_request : string -> pos:int -> (request * int, error) result

val decode_reply : string -> pos:int -> (reply * int, error) result
