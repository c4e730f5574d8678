(** The PMIR interpreter and durability-bug finder.

    Plays the role pmemcheck plays for the original system: it executes the
    program under test, records a PM-operation trace (stores, flushes,
    fences, calls — each with its call stack), and reports every store that
    is not durable when a crash point or program exit is reached.

    Since the compiled tier ({!Compile}) landed, this module is the
    differential {e oracle}: a direct, obviously-correct walk over the
    prepared code shared with the compiler ({!Prep}), against which the
    compiled closures are checked bit for bit. Production code calls
    {!Compile.call} and {!Compile.run}. *)

open Hippo_pmir
open Prep
open Machine

(* Execution -------------------------------------------------------------- *)

let rec exec_call (t : Machine.t) (pf : pfunc) (args : int array) : int =
  if Array.length args <> Array.length pf.pslots then
    Mem.trap "@%s called with %d arguments (expects %d)" pf.fname
      (Array.length args) (Array.length pf.pslots);
  let regs = Array.make pf.nregs 0 in
  Array.iteri (fun i slot -> regs.(slot) <- args.(i)) pf.pslots;
  let stack_mark = Mem.stack_mark t.mem in
  let cost = t.cfg.cost in
  let ev (v : pval) = match v with PReg i -> regs.(i) | PImm n -> n in
  let acc = t.cost_acc in
  let charge ns = acc.fv <- acc.fv +. ns in
  let code = pf.code in
  let ncode = Array.length code in
  let pc = ref 0 in
  let result = ref 0 in
  let running = ref true in
  while !running do
    if !pc >= ncode then
      Mem.trap "fell off the end of @%s (missing ret)" pf.fname;
    t.steps <- t.steps + 1;
    if t.steps > t.cfg.fuel then raise Out_of_fuel;
    let i = Array.unsafe_get code !pc in
    incr pc;
    match i.op with
    | PBinop { dst; op; lhs; rhs } ->
        let a = ev lhs and b = ev rhs in
        let r =
          match op with
          | Instr.Add -> a + b
          | Instr.Sub -> a - b
          | Instr.Mul -> a * b
          | Instr.Div -> if b = 0 then Mem.trap "division by zero" else a / b
          | Instr.Rem -> if b = 0 then Mem.trap "remainder by zero" else a mod b
          | Instr.And -> a land b
          | Instr.Or -> a lor b
          | Instr.Xor -> a lxor b
          | Instr.Shl -> a lsl (b land 62)
          | Instr.Lshr -> a lsr (b land 62)
          | Instr.Eq -> if a = b then 1 else 0
          | Instr.Ne -> if a <> b then 1 else 0
          | Instr.Lt -> if a < b then 1 else 0
          | Instr.Le -> if a <= b then 1 else 0
          | Instr.Gt -> if a > b then 1 else 0
          | Instr.Ge -> if a >= b then 1 else 0
        in
        regs.(dst) <- r;
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PMov { dst; src } ->
        regs.(dst) <- ev src;
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PGep { dst; base; offset } ->
        regs.(dst) <- ev base + ev offset;
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PLoad { dst; addr; size } ->
        let a = ev addr in
        regs.(dst) <- Mem.load t.mem ~addr:a ~size;
        (match cost with
        | Some c ->
            charge (if Layout.is_pm a then c.load_pm_ns else c.load_dram_ns)
        | None -> ())
    | PStore { addr; value; size; nt } ->
        let a = ev addr and v = ev value in
        Mem.store t.mem ~addr:a ~size v;
        if t.cfg.trace then
          Sitestats.observe t.stats ~site:i.iid ~arg:(-1) (classify_arg a);
        if Layout.is_pm a then begin
          let seq = next_seq t in
          (if nt then
             Pstate.store_nt t.ps t.mem ~iid:i.iid ~loc:i.loc ~stack:t.frames
               ~addr:a ~size ~seq
           else
             ignore
               (Pstate.store t.ps ~iid:i.iid ~loc:i.loc ~stack:t.frames ~addr:a
                  ~size ~seq));
          if t.cfg.trace then
            push_event t
              (Trace.Store
                 {
                   iid = i.iid;
                   loc = i.loc;
                   stack = t.frames;
                   addr = a;
                   size;
                   nontemporal = nt;
                   seq;
                 })
        end;
        (match cost with
        | Some c ->
            charge (if Layout.is_pm a then c.store_pm_ns else c.store_dram_ns)
        | None -> ())
    | PFlush { kind; addr } ->
        let a = ev addr in
        let moved = Pstate.flush t.ps t.mem ~iid:i.iid ~kind ~addr:a in
        if Layout.is_pm a then begin
          let seq = next_seq t in
          if t.cfg.trace then
            push_event t
              (Trace.Flush
                 {
                   iid = i.iid;
                   loc = i.loc;
                   stack = t.frames;
                   kind;
                   line_addr = Layout.line_base a;
                   seq;
                 })
        end;
        (match cost with
        | Some c ->
            charge
              (if Layout.is_pm a then
                 if moved > 0 then c.flush_pm_dirty_ns else c.flush_pm_clean_ns
               else c.flush_vol_ns)
        | None -> ())
    | PFence { kind } ->
        let seq = next_seq t in
        let drained = Pstate.fence t.ps t.mem ~seq in
        if t.cfg.trace then
          push_event t
            (Trace.Fence
               { iid = i.iid; loc = i.loc; stack = t.frames; kind; seq });
        (match cost with
        | Some c ->
            charge
              (c.fence_base_ns
              +. (float_of_int drained *. c.fence_drain_line_ns))
        | None -> ())
    | PAlloca { dst; size } ->
        regs.(dst) <- Mem.alloc_stack t.mem size;
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PCall { dst; callee; args; edge } -> (
        (match t.cov with Some c -> Coverage.mark c edge | None -> ());
        match callee with
        | Cintrinsic it ->
            let arg k = ev args.(k) in
            let r =
              match it with
              | Ipm_alloc -> Mem.alloc_pm t.mem (arg 0)
              | Ipm_base -> Layout.pm_base
              | Ipm_size -> t.cfg.pm_size
              | Imalloc -> Mem.alloc_vol t.mem (arg 0)
              | Ifree -> 0
              | Iemit ->
                  t.output_rev <- arg 0 :: t.output_rev;
                  0
              | Iabort -> raise Aborted
            in
            if dst >= 0 then regs.(dst) <- r;
            (match cost with Some c -> charge c.call_ns | None -> ())
        | Cfunc fi ->
            let callee_pf = t.pfuncs.(fi) in
            let argv = Array.map ev args in
            if t.cfg.trace then
              Array.iteri
                (fun k v ->
                  Sitestats.observe t.stats ~site:i.iid ~arg:k (classify_arg v))
                argv;
            (if t.cfg.trace then
               let seq = next_seq t in
               push_event t
                 (Trace.Call
                    {
                      iid = i.iid;
                      loc = i.loc;
                      stack = t.frames;
                      callee = callee_pf.fname;
                      arg_classes = Array.to_list (Array.map classify_arg argv);
                      seq;
                    }));
            t.frames <-
              {
                Trace.func = callee_pf.fname;
                callsite = Some i.iid;
                callsite_loc = Some i.loc;
              }
              :: t.frames;
            (match cost with Some c -> charge c.call_ns | None -> ());
            let r = exec_call t callee_pf argv in
            t.frames <- List.tl t.frames;
            if dst >= 0 then regs.(dst) <- r)
    | PJmp { target; edge } ->
        (match t.cov with Some c -> Coverage.mark c edge | None -> ());
        pc := target;
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PCondbr { cond; if_true; if_false; edge_true; edge_false } ->
        let taken = ev cond <> 0 in
        (match t.cov with
        | Some c -> Coverage.mark c (if taken then edge_true else edge_false)
        | None -> ());
        pc := (if taken then if_true else if_false);
        (match cost with Some c -> charge c.op_ns | None -> ())
    | PRet v ->
        result := (match v with Some v -> ev v | None -> 0);
        running := false
    | PCrash { edge } ->
        (match t.cov with Some c -> Coverage.mark c edge | None -> ());
        record_crash_point t ~iid:(Some i.iid) ~loc:i.loc
  done;
  Mem.stack_release t.mem stack_mark;
  !result

(** [call t name args] invokes a function from the host (as the test driver
    invokes the program under valgrind) through the interpreter — the
    oracle [test/test_exec.ml] compares {!Compile.call} against. The
    persistency state, the trace and detected bugs accumulate across
    calls. *)
let call t name args =
  match Hashtbl.find_opt t.fidx name with
  | None -> Mem.trap "call to undefined function @%s" name
  | Some fi ->
      t.frames <- [ { Trace.func = name; callsite = None; callsite_loc = None } ];
      Fun.protect
        ~finally:(fun () -> t.frames <- [])
        (fun () -> exec_call t t.pfuncs.(fi) (Array.of_list args))

(** One-shot convenience: run [entry] with [args] under the interpreter,
    then apply the exit check. Returns the machine for inspection. The
    oracle for {!Compile.run}. *)
let run ?pm_image ?(config = Machine.default_config) prog ~entry ~args =
  let t = Machine.create ?pm_image config prog in
  let ret =
    try Ok (call t entry args) with
    | Aborted -> Error `Aborted
    | Out_of_fuel -> Error `Out_of_fuel
  in
  (match ret with Ok _ -> Machine.exit_check t | Error _ -> ());
  (t, ret)

(* Pinned aliases of [Machine]. They stay because perfsuite/ compiles
   against these ten names; nothing else in the repository reads them. *)

exception Stopped_at_crash = Machine.Stopped_at_crash

type config = Machine.config = {
  trace : bool;
  fuel : int;
  cost : Cost.t option;
  track_images : bool;
  coverage : Coverage.t option;
  vol_size : int;
  stack_size : int;
  global_size : int;
  pm_size : int;
}

let default_config = Machine.default_config

type t = Machine.t

let create = Machine.create
let exit_check = Machine.exit_check
let bugs = Machine.bugs
let cost_ns = Machine.cost_ns
let steps = Machine.steps
let pstate = Machine.pstate
