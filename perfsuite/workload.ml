(* The contract between a workload and the suite's measuring loop. *)

(* Latency samples: a growable unboxed array, so recording a million of
   them leaves the measured heap alone. *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.make 4096 0.; n = 0 }
  let clear s = s.n <- 0

  let add s x =
    if s.n = Float.Array.length s.a then begin
      let a = Float.Array.make (2 * s.n) 0. in
      Float.Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    Float.Array.set s.a s.n x;
    s.n <- s.n + 1

  let length s = s.n
  let sub s ~pos ~len = Array.init len (fun i -> Float.Array.get s.a (pos + i))
end

(* One set-up's product: the measured op and the end-of-run report. *)
type instance = {
  step : unit -> int;
      (** run one unit of work (a fix, a request, a scenario); returns
          the ns it counts toward its block's rate *)
  ops : unit -> int;  (** ops completed so far, the unit of ops_per_s *)
  latency : Samples.t;  (** per-op latency, ns, recorded while untraced *)
  probe : unit -> unit;
      (** traced runs only: extra layer measurements after the blocks,
          outside every op's timing *)
  finish : unit -> outcome;  (** run-level checks and metrics *)
}

and outcome = {
  attempted : int;  (** ops measured *)
  failed : int;  (** ops whose output failed its check *)
  checks_ok : bool;  (** run-level checks (final state, digests) *)
  tail_q : float;  (** the tail quantile this workload's sample supports *)
  sim_ns_per_op : float;  (** simulated PM cost per op (cost model) *)
  counts : (string * float) list;  (** per-layer counts, by metric name *)
  extra : (string * string * Metric.kind * float) list;
      (** further rows: name, unit, kind, value *)
}

type t = {
  name : string;
  setup : seed:int -> smoke:bool -> instance;
  smoke_steps : int;  (** steps in the one block of a [--smoke] run *)
  label : int -> string;  (** renders span ids in trace files *)
}

exception Setup_failed of string

let setup_failed fmt = Printf.ksprintf (fun s -> raise (Setup_failed s)) fmt
