(** A uniform key-value adapter over the PM applications, so the serve
    handler and the YCSB load generator are app-agnostic.

    Each adapter wraps one machine session of one {e build variant}
    of one app:

    - {b flush-free}: the Hippocrates repair input (no flushes at all) —
      only Redis has one; P-CLHT's bugs are injected, not stripped;
    - {b manual}: the hand-written baseline (Redis-pm's developer port,
      CLHT's line-granular discipline with the two injected bugs);
    - {b repaired}: the program produced by the {!Hippo_core.Driver}
      repair pipeline, verified effective and harm-free before serving.

    Keys and values are byte strings at this boundary (the wire form).
    Redis stores them natively; P-CLHT is a word store, so strings are
    mapped through FNV-1a onto nonzero machine words — deterministic, so
    two variants fed identical op streams still produce comparable
    stores. Neither app supports ordered iteration, so the adapter has no
    scan and the serve handler answers a wire [Scan] with [Unsupported]. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core

type kind = Redis | Pclht

let kind_to_string = function Redis -> "redis" | Pclht -> "pclht"

type variant = Flush_free | Manual | Repaired | Optimized

let variant_to_string = function
  | Flush_free -> "flush-free"
  | Manual -> "manual"
  | Repaired -> "repaired"
  | Optimized -> "optimized"

type read_result = Found of string | Absent

type t = {
  name : string;  (** e.g. ["redis/manual"] *)
  interp : Machine.t;
  insert : key:string -> value:string -> unit;
  read : key:string -> read_result;
  delete : key:string -> bool;  (** true when a binding was removed *)
  count : unit -> int;
  check : unit -> bool;  (** the app's own recovery invariant *)
  cost_ns : unit -> float;  (** simulated ns accumulated so far *)
  echo : string -> string;
      (** what [read] answers for a stored value: identity for Redis,
          the FNV word image for P-CLHT *)
  reopen : pm_image:Bytes.t -> (t, string) result;
      (** restart the app over a crash image of its PM pool: the
          session's machine is restarted ({!Machine.restart}: same
          prepared program, config and PM allocator mark, everything
          else fresh) and the app's recovery path runs on it, with no
          initialization *)
}

(* ------------------------------------------------------------------ *)
(* Variant programs *)

let repair_or_error ~name ~workload prog =
  let r = Driver.repair ~name ~workload prog in
  if not (Verify.effective r.Driver.verification) then
    Error (Fmt.str "%s: residual bugs after repair" name)
  else if not (Verify.harm_free r.Driver.verification) then
    Error (Fmt.str "%s: repaired program diverges" name)
  else Ok r.Driver.repaired

(** Build the program for an (app, variant) pair. [Repaired] runs the
    full repair pipeline (dynamic detector, hoisting on) and fails if
    verification does. [Optimized] runs the flush/fence optimizer over
    the repaired program; the optimizer's own do-no-harm gate (identical
    static reports, else wholesale revert) has already run by the time
    the program is returned. *)
let rec program kind variant : (Program.t, string) result =
  match (kind, variant) with
  | Redis, Flush_free -> Ok (Redis_mini.build Redis_mini.Flush_free)
  | Redis, Manual -> Ok (Redis_mini.build Redis_mini.Manual)
  | Redis, Repaired ->
      repair_or_error ~name:"redis-serve"
        ~workload:Redis_bench.repair_workload
        (Redis_mini.build Redis_mini.Flush_free)
  | Pclht, Flush_free ->
      Error
        "pclht has no flush-free build (its two bugs are injected, not \
         stripped); use --variant manual or repaired"
  | Pclht, Manual -> Ok (Pclht.build ())
  | Pclht, Repaired ->
      repair_or_error ~name:"pclht-serve" ~workload:Pclht.workload
        (Pclht.build ())
  | (Redis | Pclht), Optimized -> (
      match program kind Repaired with
      | Error e -> Error e
      | Ok repaired ->
          let r =
            Driver.optimize
              ~name:(kind_to_string kind ^ "-optimize")
              repaired
          in
          Ok r.Driver.t_outcome.Hippo_engine.Optimize.o_prog)

(* ------------------------------------------------------------------ *)
(* Adapters *)

let rec redis_adapter ~name (s : Redis_mini.session) : t =
  let mem = Machine.mem s.Redis_mini.machine in
  {
    name;
    interp = s.Redis_mini.machine;
    insert =
      (fun ~key ~value ->
        Redis_mini.put_key s key;
        Redis_mini.put_value s value;
        ignore (Compile.call s.Redis_mini.machine "cmd_set" []));
    read =
      (fun ~key ->
        Redis_mini.put_key s key;
        let vl = Compile.call s.Redis_mini.machine "cmd_get" [] in
        if vl < 0 then Absent
        else Found (Mem.read_string mem ~addr:s.Redis_mini.reply_buf ~len:vl));
    delete =
      (fun ~key ->
        Redis_mini.put_key s key;
        Compile.call s.Redis_mini.machine "cmd_del" [] = 1);
    count = (fun () -> Compile.call s.Redis_mini.machine "cmd_count" []);
    check = (fun () -> Compile.call s.Redis_mini.machine "cmd_check" [] <> 0);
    cost_ns = (fun () -> Machine.cost_ns s.Redis_mini.machine);
    echo = (fun v -> v);
    reopen =
      (fun ~pm_image ->
        Ok
          (redis_adapter ~name
             (Redis_mini.recover_attach
                (Machine.restart ~pm_image s.Redis_mini.machine))));
  }

(* FNV-1a over a string, masked to a positive 62-bit word and forced
   nonzero (CLHT's key and value domain). The 64-bit offset basis
   0xcbf29ce484222325 exceeds OCaml's int literal range, so it is
   composed from halves and masked like every round. *)
let fnv_offset = ((0xcbf29ce4 lsl 32) lor 0x84222325) land 0x3FFFFFFFFFFFFFF

let word_of_string str =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := (!h lxor Char.code c) * 0x100000001b3;
      h := !h land 0x3FFFFFFFFFFFFFF)
    str;
  if !h = 0 then 1 else !h

let rec pclht_adapter ~name (s : Pclht.session) : t =
  let call f args = Compile.call s.Pclht.machine f args in
  {
    name;
    interp = s.Pclht.machine;
    insert =
      (fun ~key ~value ->
        ignore
          (call "clht_put" [ word_of_string key; word_of_string value ]));
    read =
      (fun ~key ->
        let v = call "clht_get" [ word_of_string key ] in
        (* a word store: GET echoes the stored word, not the SET bytes *)
        if v = 0 then Absent else Found (string_of_int v));
    delete = (fun ~key -> call "clht_del" [ word_of_string key ] = 1);
    count = (fun () -> Pclht.count s);
    check = (fun () -> Pclht.check s);
    cost_ns = (fun () -> Machine.cost_ns s.Pclht.machine);
    echo = (fun v -> string_of_int (word_of_string v));
    reopen =
      (fun ~pm_image ->
        Ok
          (pclht_adapter ~name
             (Pclht.recover_attach
                (Machine.restart ~pm_image s.Pclht.machine))));
  }

(** [wrap ?config ?nbuckets kind variant prog] wraps a fresh session of an
    already-built program — the simulation harness builds one (possibly
    repaired) program and wraps it once per scenario. *)
let wrap ?(config = { Machine.default_config with Machine.trace = false })
    ?(nbuckets = 1024) kind variant prog : t =
  let name =
    Fmt.str "%s/%s" (kind_to_string kind) (variant_to_string variant)
  in
  match kind with
  | Redis -> redis_adapter ~name (Redis_mini.start ~config ~nbuckets prog)
  | Pclht -> pclht_adapter ~name (Pclht.start ~config ~nbuckets prog)

(** [make ?config ?nbuckets kind variant] builds the variant program and
    wraps a fresh session. The default config suits small smoke runs;
    million-key services should size [pm_size] and bucket counts to the
    expected record count. *)
let make ?config ?nbuckets kind variant : (t, string) result =
  Result.map (wrap ?config ?nbuckets kind variant) (program kind variant)
