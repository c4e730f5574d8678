(** One simulated lifetime of a PM application: a deterministic KV
    workload driven against an {!Hippo_apps.App} session under injected
    faults, with a host-side shadow state as the correctness oracle.

    The scenario is a pure function of [(seed, index, config)]: ops and
    fault plans are drawn from {!Hippo_parallel.Stream} substreams, the
    virtual clock is the machine's simulated cost, and every observable
    lands in a transcript whose MD5 is the scenario digest — the object
    the determinism battery compares across [--jobs] widths.

    Faults at an op: the machine is armed ({!Machine.arm_crash}) so the
    op stops at an injected crash point; apps without explicit crash
    points (Redis) crash at the op boundary instead. The durable image
    is then perturbed ({!Faults.inject}) and fingerprinted: the
    transcript's [img=] field is the MD5 of the trimmed image, which
    identifies the whole PM segment because trimmed images are
    canonical. The app is restarted on the image through its recovery
    path ([App.reopen], a {!Machine.restart} of the session's machine:
    O(image bytes), nothing re-prepared), and recovery is judged:

    - the app's own invariant ([App.check] — the crash-consistency
      oracle);
    - the in-flight key reads back as old {e or} new (atomicity);
    - every other key matches the shadow exactly — a committed update
      that vanished is a lost durable update, precisely what a missing
      flush costs ({e do no harm}: on a repaired app any such loss is a
      regression the repair introduced or failed to fix);
    - the app's count equals the shadow's.

    A scenario can drive a second {e baseline} session (the repair
    input) through the byte-identical op and fault schedule; its
    violations are reported separately, so "the repaired app is clean
    where the baseline loses data" is directly visible. *)

open Hippo_pmcheck
open Hippo_apps
module Stream = Hippo_parallel.Stream

type op =
  | Insert of { key : string; value : string }
  | Read of { key : string }
  | Delete of { key : string }

let op_to_string = function
  | Insert { key; value } -> Printf.sprintf "set %s=%s" key value
  | Read { key } -> Printf.sprintf "get %s" key
  | Delete { key } -> Printf.sprintf "del %s" key

type violation = { step : int; kind : string; detail : string }

type config = {
  ops : int;  (** ops per scenario *)
  keyspace : int;  (** distinct keys the workload draws from *)
  rates : Faults.rates;
  force_crash_at : int option;
      (** crash at this absolute crash point (1-based over the whole
          scenario) instead of drawing crashes from [rates] — the hook
          differential tests use to target one {!Crashsim} verdict *)
  recovery_ns : float;  (** virtual-clock penalty per restart *)
}

let default =
  {
    ops = 120;
    keyspace = 32;
    rates = Faults.none;
    force_crash_at = None;
    recovery_ns = 5_000_000.;
  }

type outcome = {
  index : int;
  digest : string;  (** hex MD5 of the transcript(s) *)
  ops_run : int;
  crashes : int;
  recoveries : int;
  reordered : int;  (** write-backs drained by injected reordering *)
  torn : int;  (** dirty records torn at crashes *)
  clock_ns : float;
  violations : violation list;  (** target app *)
  baseline_violations : violation list;  (** lockstep baseline, if any *)
  transcript : string;  (** the target transcript (reproducer payload) *)
}

(* ------------------------------------------------------------------ *)
(* Workload generation (pure in the op substream) *)

let gen_ops st cfg =
  let key i = Printf.sprintf "k%02d" i in
  List.init cfg.ops (fun step ->
      let k = key (Random.State.int st cfg.keyspace) in
      let d = Random.State.int st 100 in
      if d < 45 then
        Insert { key = k; value = Printf.sprintf "v%d.%s" step k }
      else if d < 80 then Read { key = k }
      else Delete { key = k })

(** The op sequence scenario [index] plays — the same stream derivation
    {!run} uses, so differential tests can replay it elsewhere. *)
let ops_of ~seed ~index cfg = gen_ops (Stream.state ~seed [ 0x0B5; index ]) cfg

(* ------------------------------------------------------------------ *)
(* One session side (target or baseline) *)

type side = {
  label : string;
  mutable app : App.t;
  shadow : (string, string) Hashtbl.t;  (** committed key -> raw value *)
  flagged : (string, string) Hashtbl.t;
      (** key -> observed rendering already reported, so a corruption
          surviving several recoveries is one violation, not one per
          audit *)
  buf : Buffer.t;
  mutable halted : bool;  (** unrecoverable: remaining steps skipped *)
  mutable crashes : int;
  mutable recoveries : int;
  mutable reordered : int;
  mutable torn : int;
  mutable chain : int;  (** consecutive forced re-crashes so far *)
  mutable force_next : bool;  (** crash the next op (recovery chain) *)
  mutable clock : float;  (** cost of sessions already closed *)
  mutable violations : violation list;
}

let make_side label app =
  {
    label;
    app;
    shadow = Hashtbl.create 64;
    flagged = Hashtbl.create 8;
    buf = Buffer.create 4096;
    halted = false;
    crashes = 0;
    recoveries = 0;
    reordered = 0;
    torn = 0;
    chain = 0;
    force_next = false;
    clock = 0.;
    violations = [];
  }

let violate side ~step kind detail =
  side.violations <- { step; kind; detail } :: side.violations;
  Buffer.add_string side.buf
    (Printf.sprintf "!violation %d %s: %s\n" step kind detail)

let read_to_string = function
  | App.Absent -> "absent"
  | App.Found v -> v

(* Every app call can trap on a corrupted image (wild bucket pointer,
   zero modulus, exhausted fuel); a trap after recovery is itself a
   verdict, not a harness failure. *)
let guard side ~step what f =
  try Some (f ()) with
  | Mem.Trap m ->
      violate side ~step "trap" (Printf.sprintf "%s: %s" what m);
      None
  | Division_by_zero ->
      violate side ~step "trap" (Printf.sprintf "%s: division by zero" what);
      None
  | Machine.Aborted ->
      violate side ~step "trap" (Printf.sprintf "%s: abort" what);
      None
  | Machine.Out_of_fuel ->
      violate side ~step "trap" (Printf.sprintf "%s: out of fuel" what);
      None

(* What App.read must answer for a committed raw value. *)
let expect app = function
  | None -> App.Absent
  | Some raw -> App.Found (app.App.echo raw)

let read_eq a b =
  match (a, b) with
  | App.Absent, App.Absent -> true
  | App.Found x, App.Found y -> String.equal x y
  | _ -> false

(* Post-recovery audit: resolve the in-flight key (old or new), then
   sweep the whole keyspace against the shadow. *)
let audit side ~step ~keys ~uncertain =
  let app = side.app in
  (match guard side ~step "check" (fun () -> app.App.check ()) with
  | Some true -> ()
  | Some false ->
      violate side ~step "recovery-check-failed"
        (app.App.name ^ ": recovery invariant does not hold");
      side.halted <- true
  | None -> side.halted <- true);
  if not side.halted then begin
    (match uncertain with
    | None -> ()
    | Some (key, old_v, new_v) -> (
        match guard side ~step "read" (fun () -> app.App.read ~key) with
        | None -> side.halted <- true
        | Some obs ->
            if read_eq obs (expect app new_v) then
              (match new_v with
              | Some v -> Hashtbl.replace side.shadow key v
              | None -> Hashtbl.remove side.shadow key)
            else if read_eq obs (expect app old_v) then
              (match old_v with
              | Some v -> Hashtbl.replace side.shadow key v
              | None -> Hashtbl.remove side.shadow key)
            else
              violate side ~step "atomicity"
                (Printf.sprintf
                   "key %s is neither old (%s) nor new (%s) after \
                    recovery: %s"
                   key
                   (read_to_string (expect app old_v))
                   (read_to_string (expect app new_v))
                   (read_to_string obs))));
    List.iter
      (fun key ->
        if not side.halted then
          let expected = expect app (Hashtbl.find_opt side.shadow key) in
          match guard side ~step "read" (fun () -> app.App.read ~key) with
          | None -> side.halted <- true
          | Some obs ->
              if not (read_eq obs expected) then begin
                let obs_r = read_to_string obs in
                if Hashtbl.find_opt side.flagged key <> Some obs_r then begin
                  Hashtbl.replace side.flagged key obs_r;
                  let kind =
                    match (expected, obs) with
                    | App.Found _, App.Absent -> "lost-durable-update"
                    | App.Absent, App.Found _ -> "resurrected-key"
                    | _ -> "corrupted-value"
                  in
                  violate side ~step kind
                    (Printf.sprintf "key %s: expected %s, got %s" key
                       (read_to_string expected) obs_r)
                end
              end)
      keys;
    if not side.halted then
      match guard side ~step "count" (fun () -> app.App.count ()) with
      | None -> side.halted <- true
      | Some n ->
          let want = Hashtbl.length side.shadow in
          if n <> want then
            violate side ~step "count-mismatch"
              (Printf.sprintf "app reports %d keys, shadow holds %d" n want)
  end

(* ------------------------------------------------------------------ *)
(* Step execution *)

(* Apply a completed op to the shadow and render its result. *)
let apply_shadow side op result =
  match (op, result) with
  | Insert { key; value }, _ ->
      Hashtbl.replace side.shadow key value;
      Hashtbl.remove side.flagged key;
      "ok"
  | Read _, `Read r -> read_to_string r
  | Delete { key }, `Del existed ->
      Hashtbl.remove side.shadow key;
      Hashtbl.remove side.flagged key;
      if existed then "1" else "0"
  | _ -> "ok"

let exec_op app = function
  | Insert { key; value } ->
      app.App.insert ~key ~value;
      `Unit
  | Read { key } -> `Read (app.App.read ~key)
  | Delete { key } -> `Del (app.App.delete ~key)

(* Run one op on one side under a fault plan. [inj_st] is this side's
   private injection substream for the step (both sides derive it from
   the same path, so their schedules match). *)
let run_step side ~step ~seed ~index ~cfg ~keys op (plan : Faults.plan) =
  if not side.halted then begin
    let app = side.app in
    let machine = app.App.interp in
    let crash_wanted =
      match cfg.force_crash_at with
      | Some _ -> false (* armed below, absolutely *)
      | None -> plan.crash || side.force_next
    in
    (match cfg.force_crash_at with
    (* one forced crash per scenario: the restarted machine's counter
       begins again below [n], so only arm while no crash has fired *)
    | Some n when side.crashes = 0 && Machine.crash_points_hit machine < n ->
        Machine.arm_crash machine ~at:n
    | Some _ -> ()
    | None ->
        if crash_wanted then
          Machine.arm_crash machine
            ~at:(Machine.crash_points_hit machine + plan.in_op_at));
    let old_v =
      match op with
      | Insert { key; _ } | Read { key } | Delete { key } ->
          Hashtbl.find_opt side.shadow key
    in
    let crashed = ref false in
    (try
       let result = exec_op app op in
       let rendered = apply_shadow side op result in
       Buffer.add_string side.buf
         (Printf.sprintf "%d %s -> %s\n" step (op_to_string op) rendered);
       (* reads double as continuous shadow checks *)
       match (op, result) with
       | Read { key }, `Read obs ->
           let expected = expect app old_v in
           if not (read_eq obs expected) then
             violate side ~step "shadow-mismatch"
               (Printf.sprintf "get %s: expected %s, got %s" key
                  (read_to_string expected) (read_to_string obs))
       | _ -> ()
     with
    | Machine.Stopped_at_crash -> crashed := true
    | Mem.Trap m ->
        violate side ~step "trap"
          (Printf.sprintf "%s: %s" (op_to_string op) m);
        side.halted <- true
    | Machine.Aborted ->
        violate side ~step "trap" (op_to_string op ^ ": abort");
        side.halted <- true
    | Machine.Out_of_fuel ->
        violate side ~step "trap" (op_to_string op ^ ": out of fuel");
        side.halted <- true);
    Machine.disarm_crash machine;
    (* a wanted crash the op's crash points never realized becomes a
       boundary crash: the op completed but the cache's durability is
       still up to the injector (forced absolute crashes never fall
       back — they wait for their exact point) *)
    let crashed = !crashed || crash_wanted in
    if (not side.halted) && crashed then begin
      side.crashes <- side.crashes + 1;
      side.force_next <- false;
      let ps = Machine.pstate machine and mem = Machine.mem machine in
      let inj_st = Stream.state ~seed [ 0x51A3; index; step ] in
      let reordered, torn = Faults.inject inj_st cfg.rates ps mem in
      side.reordered <- side.reordered + reordered;
      side.torn <- side.torn + torn;
      let image = Mem.crash_image mem in
      side.clock <-
        side.clock +. Machine.cost_ns machine +. cfg.recovery_ns;
      (* [img=] fingerprints the crash image. Images are trimmed, so two
         fingerprints are equal exactly when the whole PM segments are. *)
      Buffer.add_string side.buf
        (Printf.sprintf "%d !crash pt=%d img=%s reordered=%d torn=%d\n"
           step
           (Machine.crash_points_hit machine)
           (Digest.to_hex (Digest.bytes image))
           reordered torn);
      (* the op that was cut down (or completed un-durably): its key may
         legitimately read back old or new *)
      let uncertain =
        match op with
        | Insert { key; value } -> Some (key, old_v, Some value)
        | Delete { key } -> Some (key, old_v, None)
        | Read { key } -> Some (key, old_v, old_v)
      in
      match side.app.App.reopen ~pm_image:image with
      | Error e ->
          violate side ~step "reopen-failed" e;
          side.halted <- true
      | Ok app' ->
          side.app <- app';
          side.recoveries <- side.recoveries + 1;
          Buffer.add_string side.buf (Printf.sprintf "%d !recover\n" step);
          audit side ~step ~keys ~uncertain;
          (* recovery-then-re-crash chain *)
          if
            (not side.halted) && plan.recrash
            && side.chain < cfg.rates.max_chain
          then begin
            side.force_next <- true;
            side.chain <- side.chain + 1
          end
          else side.chain <- 0
    end
  end

(* ------------------------------------------------------------------ *)

let close side =
  side.clock <- side.clock +. Machine.cost_ns side.app.App.interp;
  Buffer.add_string side.buf
    (Printf.sprintf "end crashes=%d recoveries=%d clock=%.0f\n" side.crashes
       side.recoveries side.clock)

(** [run ~seed ~index cfg ~make_app ?make_baseline ()] plays scenario
    [index]. [make_app] opens a fresh target session; [make_baseline]
    (optional) opens the lockstep baseline. Session construction
    failures surface as an [Error]. *)
let run ~seed ~index cfg ~make_app ?make_baseline () :
    (outcome, string) result =
  let fault_st = Stream.state ~seed [ 0xFA17; index ] in
  let ops = ops_of ~seed ~index cfg in
  let plans = List.map (fun _ -> Faults.plan fault_st cfg.rates) ops in
  let keys = List.init cfg.keyspace (Printf.sprintf "k%02d") in
  match make_app () with
  | Error e -> Error e
  | Ok app -> (
      let target = make_side "target" app in
      let baseline =
        match make_baseline with
        | None -> Ok None
        | Some mk -> (
            match mk () with
            | Error e -> Error e
            | Ok b -> Ok (Some (make_side "baseline" b)))
      in
      match baseline with
      | Error e -> Error e
      | Ok baseline ->
          List.iteri
            (fun step (op, plan) ->
              run_step target ~step ~seed ~index ~cfg ~keys op plan;
              match baseline with
              | Some b -> run_step b ~step ~seed ~index ~cfg ~keys op plan
              | None -> ())
            (List.combine ops plans);
          close target;
          Option.iter close baseline;
          let transcript = Buffer.contents target.buf in
          let digest_src =
            transcript
            ^
            match baseline with
            | Some b -> Buffer.contents b.buf
            | None -> ""
          in
          Ok
            {
              index;
              digest = Digest.to_hex (Digest.string digest_src);
              ops_run = List.length ops;
              crashes = target.crashes;
              recoveries = target.recoveries;
              reordered = target.reordered;
              torn = target.torn;
              clock_ns = target.clock;
              violations = List.rev target.violations;
              baseline_violations =
                (match baseline with
                | Some b -> List.rev b.violations
                | None -> []);
              transcript;
            })
