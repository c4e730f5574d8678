(** In-memory span recorder for the suite's traced runs.

    A span is one call into a layer's public function, recorded from the
    benchmark's own code: name, start, end, parent span and the id of
    the request, subject or scenario it served. Recording is off by
    default; while off, {!span} is a single branch around the call.

    Every recorded span feeds a per-name aggregate (calls, total and
    self time, exact duration samples). With [~store:true] the spans
    themselves are also kept, up to a cap, for {!write_jsonl}. *)

type name

(** Intern a span name (idempotent). *)
val name : string -> name

val to_string : name -> string

(** Monotonic clock, ns. *)
val now_ns : unit -> int

(** [start ~store] clears every aggregate and stored span. *)
val start : store:bool -> unit

(** Turn recording on or off; only between top-level calls. *)
val set_on : bool -> unit

val is_on : unit -> bool

(** [span n ?id f] runs [f] as a span named [n]. [id] defaults to the
    enclosing span's id. *)
val span : name -> ?id:int -> (unit -> 'a) -> 'a

(** [finished n ~dur_ns] records a child of the current span that ended
    just now and lasted [dur_ns] (a duration reported after the fact by
    the layer itself, such as an engine pass event). *)
val finished : name -> dur_ns:int -> unit

type stats = {
  calls : int;
  total_ns : int;
  self_ns : int;  (** total minus the time covered by child spans *)
  durs_ns : int array;  (** every call's duration, unsorted *)
}

val stats : name -> stats

(** Summed duration of the top-level spans. *)
val root_ns : unit -> int

(** Write the stored spans as JSON-lines (one span per line, in
    recording order) and return how many were written and how many the cap
    dropped. [label] renders span ids. *)
val write_jsonl : string -> label:(int -> string) -> int * int
