(** Timed execution: run a host driver against a program under the latency
    cost model and report simulated throughput. *)

open Hippo_pmcheck

type run = {
  ops : int;
  sim_ns : float;  (** simulated nanoseconds accumulated by the cost model *)
  steps : int;  (** interpreted instructions *)
}

let throughput_kops r =
  if r.sim_ns <= 0.0 then 0.0 else float_of_int r.ops /. r.sim_ns *. 1e6

(** [measure ?cost prog ~setup ~drive ~ops] creates an untraced machine
    with the cost model, runs [setup] (not timed — it may build driver
    state such as scratch buffers and return it), then [drive] (timed);
    [ops] is the operation count [drive] performs. *)
let measure ?(cost = Cost.default) prog ~(setup : Machine.t -> 'a)
    ~(drive : Machine.t -> 'a -> unit) ~ops : run =
  let cfg =
    { Machine.default_config with Machine.trace = false; cost = Some cost }
  in
  let t = Machine.create cfg prog in
  let state = setup t in
  let before = Machine.cost_ns t in
  let steps_before = Machine.steps t in
  drive t state;
  {
    ops;
    sim_ns = Machine.cost_ns t -. before;
    steps = Machine.steps t - steps_before;
  }

(** [trials n f] runs [f seed] for seeds 1..n and summarizes the
    throughputs. *)
let trials n (f : int -> run) : Stats.summary =
  Stats.summarize (List.init n (fun k -> throughput_kops (f (k + 1))))

type static_counts = { stores : int; flushes : int; fences : int }

(* The mini-libpmem entry points that flush a range and/or fence; a call
   site counts as one flush site, one fence site, or both ([pmem_persist],
   [pmem_memcpy_persist]). The runtime bodies' own [Flush]/[Fence]
   instructions are counted once like any other instruction. *)
let flushing_calls = [ "pmem_flush"; "pmem_persist"; "pmem_memcpy_persist" ]
let fencing_calls = [ "pmem_drain"; "pmem_persist"; "pmem_memcpy_persist" ]

let static_counts prog =
  let open Hippo_pmir in
  List.fold_left
    (fun acc f ->
      Func.fold_instrs
        (fun acc (i : Instr.t) ->
          match Instr.op i with
          | Instr.Store _ -> { acc with stores = acc.stores + 1 }
          | Instr.Flush _ -> { acc with flushes = acc.flushes + 1 }
          | Instr.Fence _ -> { acc with fences = acc.fences + 1 }
          | Instr.Call { callee; _ } ->
              {
                acc with
                flushes =
                  (acc.flushes + if List.mem callee flushing_calls then 1 else 0);
                fences =
                  (acc.fences + if List.mem callee fencing_calls then 1 else 0);
              }
          | _ -> acc)
        acc f)
    { stores = 0; flushes = 0; fences = 0 }
    (Hippo_pmir.Program.funcs prog)

let pp_static_counts ppf c =
  Fmt.pf ppf "%d stores, %d flush sites, %d fence sites" c.stores c.flushes
    c.fences
