(* repair-corpus: the `hippocrates fix --optimize` job over every
   subject the repo repairs. Each fix parses the subject's printed PMIR,
   repairs it and runs the flush/fence optimizer; it reaches pmir,
   alias, staticcheck, the engine passes and the pmcheck machine, and
   never serve, ycsb or sim. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core
open Hippo_apps
module Case = Hippo_pmdk_mini.Case
module Optimize = Hippo_engine.Optimize

type subject = {
  id : string;
  text : string;  (** the subject as textual PMIR: what `fix` reads *)
  workload : Interp.t -> unit;
  sites : int;  (** distinct buggy store sites the repair must report *)
}

(* The bug counts the repair must find: distinct buggy store sites per
   subject (P-CLHT's two injected bugs and memcached's nine sites are
   the counts test/test_corpus.ml pins; the rest are pinned here). *)
let expected_sites = function
  | "pmdk-461" | "pmdk-942" | "pclht-1" -> 2
  | "mc-1" -> 9
  | "redis-flush-free" -> 12
  | _ -> 1

let subjects () =
  let subject id text workload =
    { id; text; workload; sites = expected_sites id }
  in
  let of_case (c : Case.t) =
    subject c.Case.id
      (Printer.to_string (Lazy.force c.Case.program))
      c.Case.workload
  in
  Array.of_list
    (List.map of_case
       (Hippo_pmdk_mini.Bugs.all
       @ [ List.hd Pclht.cases; List.hd Memcached_mini.cases ])
    @ [
        subject "redis-flush-free"
          (Printer.to_string (Redis_mini.build Redis_mini.Flush_free))
          Redis_bench.repair_workload;
      ])

let sp_parse = Span.name "pmir.parse"
let sp_repair = Span.name "core.repair"
let sp_optimize = Span.name "core.optimize"
let sp_andersen = Span.name "alias.andersen"
let sp_static = Span.name "staticcheck.check"
let sp_create = Span.name "pmcheck.create"
let sp_detect = Span.name "pmcheck.detect"

(* Engine passes report their own duration when they end (process CPU
   time, the engine's clock); each becomes a child span of the bench's
   repair or optimize span. *)
let engine_event (e : Hippo_engine.Event.t) =
  Span.finished
    (Span.name ("engine." ^ e.Hippo_engine.Event.pass))
    ~dur_ns:(int_of_float (e.Hippo_engine.Event.dur_s *. 1e9))

let fix ~id (s : subject) =
  let trace = if Span.is_on () then Some engine_event else None in
  let prog = Span.span sp_parse ~id (fun () -> Parser.program s.text) in
  let r =
    Span.span sp_repair ~id (fun () ->
        Driver.repair ?trace ~name:s.id ~workload:s.workload prog)
  in
  let o =
    Span.span sp_optimize ~id (fun () ->
        Driver.optimize ?trace ~name:s.id r.Driver.repaired)
  in
  (r, o.Driver.t_outcome)

let fix_ok (s : subject) (r : Driver.result) (o : Optimize.outcome) =
  Verify.effective r.Driver.verification
  && Verify.harm_free r.Driver.verification
  && Case.static_bug_sites r.Driver.bugs = s.sites
  && o.Optimize.o_report_equal && not o.Optimize.o_reverted

(* Simulated cost of a program running its own workload. *)
let sim_cost prog workload =
  let t =
    Interp.create
      {
        Interp.default_config with
        Interp.trace = false;
        cost = Some Cost.default;
      }
      prog
  in
  workload t;
  Interp.cost_ns t

(* The engine's deterministic counts over a set of fixes. *)
let fix_counts (fixes : (Driver.result * Optimize.outcome) list) =
  let sum f = float_of_int (List.fold_left (fun n x -> n + f x) 0 fixes) in
  [
    ("engine.bugs", sum (fun (r, _) -> List.length r.Driver.bugs));
    ("engine.fixes", sum (fun (r, _) -> List.length r.Driver.plan.Fix.fixes));
    ( "engine.reduce_eliminated",
      sum (fun (r, _) -> r.Driver.reduce_eliminated) );
    ("engine.hoisted", sum (fun (r, _) -> Fix.count_hoisted r.Driver.plan));
    ( "engine.clones_created",
      sum (fun (r, _) -> r.Driver.apply_stats.Apply.clones_created) );
    ( "engine.opt_removed",
      sum (fun (_, o) -> List.length o.Optimize.o_removals) );
    ("pmir.instrs_in", sum (fun (r, _) -> r.Driver.input_instrs));
    ("pmir.instrs_out", sum (fun (_, o) -> Program.size o.Optimize.o_prog));
  ]

(* The per-subject layer probes: each re-runs one layer the fix uses on
   the fix's input. The machine is created at the config repair uses.
   They run after the measured blocks: interleaved with the fixes, their
   allocations would pay the fixes' collector debt and make traced fixes
   faster than untraced ones. *)
let probe_subject ~id (s : subject) =
  let prog = Parser.program s.text in
  let config = Interp.default_config in
  ignore
    (Span.span sp_andersen ~id (fun () -> Hippo_alias.Andersen.analyze prog));
  ignore
    (Span.span sp_static ~id (fun () -> Hippo_staticcheck.Checker.check prog));
  ignore (Span.span sp_create ~id (fun () -> Interp.create config prog));
  let t0 = Span.now_ns () in
  let t =
    Span.span sp_detect ~id (fun () ->
        let t = Interp.create config prog in
        (try s.workload t with Interp.Stopped_at_crash -> ());
        Interp.exit_check t;
        ignore (Interp.bugs t);
        t)
  in
  (Interp.steps t, Span.now_ns () - t0, Interp.pstate t)

let setup ~seed ~smoke:_ : Workload.instance =
  let subjects = subjects () in
  let n = Array.length subjects in
  (* warm-up round: the reference outputs and the deterministic counts *)
  let warm =
    Array.mapi
      (fun i s ->
        let r, o = fix ~id:i s in
        if not (fix_ok s r o) then
          Workload.setup_failed "%s: warm-up fix failed" s.id;
        (r, o))
      subjects
  in
  let reference =
    Array.map (fun (_, o) -> Printer.to_string o.Optimize.o_prog) warm
  in
  let cost =
    Array.fold_left ( +. ) 0.
      (Array.mapi
         (fun i (_, o) -> sim_cost o.Optimize.o_prog subjects.(i).workload)
         warm)
  in
  let counts = fix_counts (Array.to_list warm) in
  (* measured rounds: every subject once per round, in a seeded order *)
  let order = Array.init n Fun.id and round = ref (-1) and pos = ref n in
  let next () =
    if !pos = n then begin
      incr round;
      let st = Random.State.make [| seed; !round |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      pos := 0
    end;
    incr pos;
    order.(!pos - 1)
  in
  let attempted = ref 0 and failed = ref 0 in
  let latency = Workload.Samples.create () in
  let step () =
    let i = next () in
    let s = subjects.(i) in
    let t0 = Span.now_ns () in
    let r, o = fix ~id:i s in
    let dt = Span.now_ns () - t0 in
    incr attempted;
    if
      not (fix_ok s r o && Printer.to_string o.Optimize.o_prog = reference.(i))
    then incr failed;
    if not (Span.is_on ()) then Workload.Samples.add latency (float_of_int dt);
    dt
  in
  (* three rounds of probes, every subject in turn *)
  let probes = ref 0 and probe_steps = ref 0 and probe_ns = ref 0 in
  let unpersisted = ref 0 in
  let probe () =
    for _ = 1 to 3 do
      Array.iteri
        (fun i s ->
          let steps, ns, pstate = probe_subject ~id:i s in
          incr probes;
          probe_steps := !probe_steps + steps;
          probe_ns := !probe_ns + ns;
          unpersisted := Pstate.unpersisted_count pstate)
        subjects
    done
  in
  let finish () : Workload.outcome =
    let f = float_of_int in
    let per x y = if y = 0. then 0. else x /. y in
    {
      attempted = !attempted;
      failed = !failed;
      checks_ok = true;
      tail_q = 0.95;
      sim_ns_per_op = cost /. f n;
      counts =
        counts
        @ [
            ("pmcheck.steps_per_op", per (f !probe_steps) (f !probes));
            ("pmcheck.steps_per_s", per (f !probe_steps) (f !probe_ns /. 1e9));
            ("pmcheck.unpersisted_records", f !unpersisted);
          ];
      extra = [ ("emitted_cost_ns", "sim_ns", Metric.Sim, cost) ];
    }
  in
  { Workload.step; ops = (fun () -> !attempted); latency; probe; finish }

let ids = lazy (Array.map (fun s -> s.id) (subjects ()))

let workload =
  {
    Workload.name = "repair-corpus";
    setup;
    smoke_steps = 14;
    label = (fun i -> if i < 0 then "-" else (Lazy.force ids).(i));
  }
