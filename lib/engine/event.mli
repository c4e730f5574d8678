(** Structured per-stage pipeline events.

    Every repair or optimizer stage produces one event: which stage ran, against
    which program version, how long it took, and what it did (counters)
    — the raw material for the per-phase breakdown tables in bench
    output and for the JSON-lines trace files written by the CLI's
    [--trace-out] flag. Events are plain data; rendering (JSON or a
    formatted table) is separate so the same stream serves both. *)

type t = {
  pass : string;  (** stage name, e.g. ["locate"] *)
  target : string;  (** the repair target's name *)
  version : int;  (** program version the stage started from *)
  parallel : int;  (** domains the stage fanned out over (1 = serial) *)
  dur_s : float;  (** process CPU time ([Sys.time]) the stage took *)
  counters : (string * int) list;  (** e.g. [("bugs", 3)] *)
  notes : (string * string) list;  (** e.g. [("detector", "dynamic")] *)
}

(** One JSON object per event (no trailing newline):
    [{"pass":…,"target":…,"version":…,"parallel":…,"dur_s":…,"counters":{…},"notes":{…}}] *)
val to_json : t -> string

(** Write the events as JSON-lines, one event per line, in order. *)
val write_jsonl : string -> t list -> unit

(** Per-phase breakdown: aggregate the events by stage name (first-seen
    order) and render runs, total/mean time and the summed
    counters as an aligned table. *)
val pp_table : Format.formatter -> t list -> unit

(** Sum of all stage durations, in seconds. *)
val total_time : t list -> float
