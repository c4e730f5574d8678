(** The compiled execution tier: closure-threaded PMIR.

    Each prepared basic block ({!Prep.pfunc}[.leaders]) becomes one chain
    of OCaml closures: registers live in a preallocated [int array],
    operand shapes (register/immediate) and access sizes are specialized
    when the closure is built, branch targets are pre-resolved to block
    slots, and the trace/coverage/cost/image hooks are baked in at compile
    time — a disabled hook costs nothing, not a branch per instruction.
    Control transfers are tail calls between block closures, so loops run
    in constant OCaml stack.

    Fuel is pre-charged per segment (a maximal run of instructions that
    cannot start a nested call or raise [Stopped_at_crash]): when the
    remaining fuel covers the whole segment, the fast chain runs with no
    per-instruction bookkeeping; otherwise a per-instruction counted chain,
    built the first time the segment needs it, reproduces the
    interpreter's [Out_of_fuel] point exactly. [steps] can
    overshoot by at most a segment tail when a {!Mem.Trap} aborts a run
    mid-segment; every quantity in the parity contract (trace, bugs,
    output, [cost_ns], coverage, crash images, seq numbers) is
    bit-identical with {!Interp}.

    Functions compile lazily into {!Machine.t}[.compiled], a table shared
    by the machines of a restart chain. Closures capture only what those
    machines share — the prepared code, the config and the table — and
    reach the running machine's state through {!Machine.binding}, which
    {!call} points at the machine it runs. A restart therefore compiles
    nothing again. *)

open Hippo_pmir
open Prep
open Machine

type code = int array -> int

let rec get_fn (t : Machine.t) (fi : int) : code =
  match t.compiled.(fi) with
  | Some f -> f
  | None ->
      let f = compile_func t fi in
      t.compiled.(fi) <- Some f;
      f

(* [t] is read here only: a closure that captured it would pin one
   machine of the chain, so run-time state is read through [bnd]. *)
and compile_func (t : Machine.t) (fi : int) : code =
  let bnd = t.binding in
  let pfuncs = t.pfuncs and compiled = t.compiled in
  let pf = pfuncs.(fi) in
  let fname = pf.fname in
  let code = pf.code in
  let ncode = Array.length code in
  let cfg = t.cfg in
  let fuel = cfg.fuel in
  let trace = cfg.trace in
  let cost = cfg.cost in
  let cov = t.cov in
  (* = [Mem.tracking] of every machine of the chain: [Machine.new_mem]
     passes it through *)
  let tracking = cfg.track_images in
  let leaders = pf.leaders in
  let nblocks = Array.length leaders in
  let fell_off : code =
   fun _ -> Mem.trap "fell off the end of @%s (missing ret)" fname
  in
  (* Slot [nblocks] is the virtual past-the-end block: falling through the
     last block is the interpreter's missing-ret trap. *)
  let blocks : code array = Array.make (nblocks + 1) fell_off in
  let slot_tbl = Hashtbl.create ((nblocks * 2) + 1) in
  Array.iteri (fun b idx -> Hashtbl.replace slot_tbl idx b) leaders;
  let slot_of idx =
    match Hashtbl.find_opt slot_tbl idx with
    | Some b -> b
    | None -> assert false (* branch targets are always block leaders *)
  in
  let evc : pval -> code = function
    | PReg x -> fun regs -> Array.unsafe_get regs x
    | PImm n -> fun _ -> n
  in
  (* Continuation for register-only ops: charge op_ns, or nothing at all. *)
  let fin_pure (next : code) : code =
    match cost with
    | None -> next
    | Some c ->
        let ns = c.op_ns in
        fun regs ->
          let acc = bnd.cur_acc in
          acc.fv <- acc.fv +. ns;
          next regs
  in
  (* Enter block [tgt], marking the edge / charging the branch as
     configured. The block closure is fetched at run time because blocks
     are filled after their predecessors compile. *)
  let jump (edge : int) (tgt : int) : code =
    match (cov, cost) with
    | None, None -> fun regs -> (Array.unsafe_get blocks tgt) regs
    | Some cv, None ->
        fun regs ->
          Coverage.mark cv edge;
          (Array.unsafe_get blocks tgt) regs
    | None, Some c ->
        let ns = c.op_ns in
        fun regs ->
          let acc = bnd.cur_acc in
          acc.fv <- acc.fv +. ns;
          (Array.unsafe_get blocks tgt) regs
    | Some cv, Some c ->
        let ns = c.op_ns in
        fun regs ->
          Coverage.mark cv edge;
          let acc = bnd.cur_acc in
          acc.fv <- acc.fv +. ns;
          (Array.unsafe_get blocks tgt) regs
  in
  let compile_instr (i : pinstr) (next : code) : code =
    match i.op with
    | PBinop { dst; op; lhs; rhs } -> (
        let fin = fin_pure next in
        let mk frr fri fir fii : code =
          match (lhs, rhs) with
          | PReg x, PReg y -> frr x y
          | PReg x, PImm n -> fri x n
          | PImm n, PReg y -> fir n y
          | PImm a, PImm b -> fii a b
        in
        let const r : code =
         fun regs ->
          Array.unsafe_set regs dst r;
          fin regs
        in
        match op with
        | Instr.Add ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (Array.unsafe_get regs x + Array.unsafe_get regs y);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst (Array.unsafe_get regs x + n);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst (n + Array.unsafe_get regs y);
                fin regs)
              (fun a b -> const (a + b))
        | Instr.Sub ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (Array.unsafe_get regs x - Array.unsafe_get regs y);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst (Array.unsafe_get regs x - n);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst (n - Array.unsafe_get regs y);
                fin regs)
              (fun a b -> const (a - b))
        | Instr.Mul ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (Array.unsafe_get regs x * Array.unsafe_get regs y);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst (Array.unsafe_get regs x * n);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst (n * Array.unsafe_get regs y);
                fin regs)
              (fun a b -> const (a * b))
        | Instr.Div ->
            mk
              (fun x y regs ->
                let b = Array.unsafe_get regs y in
                if b = 0 then Mem.trap "division by zero"
                else begin
                  Array.unsafe_set regs dst (Array.unsafe_get regs x / b);
                  fin regs
                end)
              (fun x n ->
                if n = 0 then fun _ -> Mem.trap "division by zero"
                else
                  fun regs ->
                    Array.unsafe_set regs dst (Array.unsafe_get regs x / n);
                    fin regs)
              (fun n y regs ->
                let b = Array.unsafe_get regs y in
                if b = 0 then Mem.trap "division by zero"
                else begin
                  Array.unsafe_set regs dst (n / b);
                  fin regs
                end)
              (fun a b ->
                if b = 0 then fun _ -> Mem.trap "division by zero"
                else const (a / b))
        | Instr.Rem ->
            mk
              (fun x y regs ->
                let b = Array.unsafe_get regs y in
                if b = 0 then Mem.trap "remainder by zero"
                else begin
                  Array.unsafe_set regs dst (Array.unsafe_get regs x mod b);
                  fin regs
                end)
              (fun x n ->
                if n = 0 then fun _ -> Mem.trap "remainder by zero"
                else
                  fun regs ->
                    Array.unsafe_set regs dst (Array.unsafe_get regs x mod n);
                    fin regs)
              (fun n y regs ->
                let b = Array.unsafe_get regs y in
                if b = 0 then Mem.trap "remainder by zero"
                else begin
                  Array.unsafe_set regs dst (n mod b);
                  fin regs
                end)
              (fun a b ->
                if b = 0 then fun _ -> Mem.trap "remainder by zero"
                else const (a mod b))
        | Instr.And ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (Array.unsafe_get regs x land Array.unsafe_get regs y);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst (Array.unsafe_get regs x land n);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst (n land Array.unsafe_get regs y);
                fin regs)
              (fun a b -> const (a land b))
        | Instr.Or ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (Array.unsafe_get regs x lor Array.unsafe_get regs y);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst (Array.unsafe_get regs x lor n);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst (n lor Array.unsafe_get regs y);
                fin regs)
              (fun a b -> const (a lor b))
        | Instr.Xor ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (Array.unsafe_get regs x lxor Array.unsafe_get regs y);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst (Array.unsafe_get regs x lxor n);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst (n lxor Array.unsafe_get regs y);
                fin regs)
              (fun a b -> const (a lxor b))
        | Instr.Shl ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (Array.unsafe_get regs x lsl (Array.unsafe_get regs y land 62));
                fin regs)
              (fun x n ->
                let sh = n land 62 in
                fun regs ->
                  Array.unsafe_set regs dst (Array.unsafe_get regs x lsl sh);
                  fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst
                  (n lsl (Array.unsafe_get regs y land 62));
                fin regs)
              (fun a b -> const (a lsl (b land 62)))
        | Instr.Lshr ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (Array.unsafe_get regs x lsr (Array.unsafe_get regs y land 62));
                fin regs)
              (fun x n ->
                let sh = n land 62 in
                fun regs ->
                  Array.unsafe_set regs dst (Array.unsafe_get regs x lsr sh);
                  fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst
                  (n lsr (Array.unsafe_get regs y land 62));
                fin regs)
              (fun a b -> const (a lsr (b land 62)))
        | Instr.Eq ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x = Array.unsafe_get regs y then 1
                   else 0);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x = n then 1 else 0);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst
                  (if n = Array.unsafe_get regs y then 1 else 0);
                fin regs)
              (fun a b -> const (if a = b then 1 else 0))
        | Instr.Ne ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x <> Array.unsafe_get regs y then 1
                   else 0);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x <> n then 1 else 0);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst
                  (if n <> Array.unsafe_get regs y then 1 else 0);
                fin regs)
              (fun a b -> const (if a <> b then 1 else 0))
        | Instr.Lt ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x < Array.unsafe_get regs y then 1
                   else 0);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x < n then 1 else 0);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst
                  (if n < Array.unsafe_get regs y then 1 else 0);
                fin regs)
              (fun a b -> const (if a < b then 1 else 0))
        | Instr.Le ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x <= Array.unsafe_get regs y then 1
                   else 0);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x <= n then 1 else 0);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst
                  (if n <= Array.unsafe_get regs y then 1 else 0);
                fin regs)
              (fun a b -> const (if a <= b then 1 else 0))
        | Instr.Gt ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x > Array.unsafe_get regs y then 1
                   else 0);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x > n then 1 else 0);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst
                  (if n > Array.unsafe_get regs y then 1 else 0);
                fin regs)
              (fun a b -> const (if a > b then 1 else 0))
        | Instr.Ge ->
            mk
              (fun x y regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x >= Array.unsafe_get regs y then 1
                   else 0);
                fin regs)
              (fun x n regs ->
                Array.unsafe_set regs dst
                  (if Array.unsafe_get regs x >= n then 1 else 0);
                fin regs)
              (fun n y regs ->
                Array.unsafe_set regs dst
                  (if n >= Array.unsafe_get regs y then 1 else 0);
                fin regs)
              (fun a b -> const (if a >= b then 1 else 0)))
    | PMov { dst; src } -> (
        let fin = fin_pure next in
        match src with
        | PReg x ->
            fun regs ->
              Array.unsafe_set regs dst (Array.unsafe_get regs x);
              fin regs
        | PImm n ->
            fun regs ->
              Array.unsafe_set regs dst n;
              fin regs)
    | PGep { dst; base; offset } -> (
        let fin = fin_pure next in
        match (base, offset) with
        | PReg x, PReg y ->
            fun regs ->
              Array.unsafe_set regs dst
                (Array.unsafe_get regs x + Array.unsafe_get regs y);
              fin regs
        | PReg x, PImm n ->
            fun regs ->
              Array.unsafe_set regs dst (Array.unsafe_get regs x + n);
              fin regs
        | PImm n, PReg y ->
            fun regs ->
              Array.unsafe_set regs dst (n + Array.unsafe_get regs y);
              fin regs
        | PImm a, PImm b ->
            let r = a + b in
            fun regs ->
              Array.unsafe_set regs dst r;
              fin regs)
    | PAlloca { dst; size } ->
        let fin = fin_pure next in
        fun regs ->
          Array.unsafe_set regs dst (Mem.alloc_stack bnd.cur_mem size);
          fin regs
    | PLoad { dst; addr; size } -> (
        (* Sizes 1 and 8 dominate generated code (byte scans, word and
           pointer loads); giving them fully applied accessor calls lets
           the [@inline] bodies land in the closure — a partial
           application here would cost an indirect call per load. *)
        match (size, addr, cost) with
        | 1, PReg x, None ->
            fun regs ->
              Array.unsafe_set regs dst
                (Mem.load1 bnd.cur_mem (Array.unsafe_get regs x));
              next regs
        | 1, PReg x, Some c ->
            let lpm = c.load_pm_ns and ldr = c.load_dram_ns in
            fun regs ->
              let a = Array.unsafe_get regs x in
              Array.unsafe_set regs dst (Mem.load1 bnd.cur_mem a);
              let acc = bnd.cur_acc in
              acc.fv <- acc.fv +. (if Layout.is_pm a then lpm else ldr);
              next regs
        | 8, PReg x, None ->
            fun regs ->
              Array.unsafe_set regs dst
                (Mem.load8 bnd.cur_mem (Array.unsafe_get regs x));
              next regs
        | 8, PReg x, Some c ->
            let lpm = c.load_pm_ns and ldr = c.load_dram_ns in
            fun regs ->
              let a = Array.unsafe_get regs x in
              Array.unsafe_set regs dst (Mem.load8 bnd.cur_mem a);
              let acc = bnd.cur_acc in
              acc.fv <- acc.fv +. (if Layout.is_pm a then lpm else ldr);
              next regs
        | _ -> (
            let ld : int -> int =
              match size with
              | 1 -> fun a -> Mem.load1 bnd.cur_mem a
              | 2 -> fun a -> Mem.load2 bnd.cur_mem a
              | 4 -> fun a -> Mem.load4 bnd.cur_mem a
              | 8 -> fun a -> Mem.load8 bnd.cur_mem a
              | sz -> fun a -> Mem.load bnd.cur_mem ~addr:a ~size:sz
            in
            match (addr, cost) with
            | PReg x, None ->
                fun regs ->
                  Array.unsafe_set regs dst (ld (Array.unsafe_get regs x));
                  next regs
            | PImm a, None ->
                fun regs ->
                  Array.unsafe_set regs dst (ld a);
                  next regs
            | PReg x, Some c ->
                let lpm = c.load_pm_ns and ldr = c.load_dram_ns in
                fun regs ->
                  let a = Array.unsafe_get regs x in
                  Array.unsafe_set regs dst (ld a);
                  let acc = bnd.cur_acc in
                  acc.fv <- acc.fv +. (if Layout.is_pm a then lpm else ldr);
                  next regs
            | PImm a, Some c ->
                let ns =
                  if Layout.is_pm a then c.load_pm_ns else c.load_dram_ns
                in
                fun regs ->
                  Array.unsafe_set regs dst (ld a);
                  let acc = bnd.cur_acc in
                  acc.fv <- acc.fv +. ns;
                  next regs))
    | PStore { addr; value; size; nt } -> (
        let iid = i.iid and loc = i.loc in
        let st : int -> int -> unit =
          if tracking then fun a v -> Mem.store bnd.cur_mem ~addr:a ~size v
          else
            match size with
            | 1 -> fun a v -> Mem.store1 bnd.cur_mem a v
            | 2 -> fun a v -> Mem.store2 bnd.cur_mem a v
            | 4 -> fun a v -> Mem.store4 bnd.cur_mem a v
            | 8 -> fun a v -> Mem.store8 bnd.cur_mem a v
            | sz -> fun a v -> Mem.store bnd.cur_mem ~addr:a ~size:sz v
        in
        let pstore : int -> int -> unit =
          if nt then fun a seq ->
            Pstate.store_nt bnd.cur_ps bnd.cur_mem ~iid ~loc
              ~stack:bnd.cur.frames ~addr:a ~size ~seq
          else
            fun a seq ->
              ignore
                (Pstate.store bnd.cur_ps ~iid ~loc ~stack:bnd.cur.frames ~addr:a
                   ~size ~seq)
        in
        let pm_part : int -> unit =
          if trace then fun a ->
            let m = bnd.cur in
            let seq = next_seq m in
            pstore a seq;
            push_event m
              (Trace.Store
                 {
                   iid;
                   loc;
                   stack = m.frames;
                   addr = a;
                   size;
                   nontemporal = nt;
                   seq;
                 })
          else
            fun a ->
              let seq = next_seq bnd.cur in
              pstore a seq
        in
        let body : int -> int -> unit =
          match (trace, cost) with
          | false, None ->
              fun a v ->
                st a v;
                if Layout.is_pm a then pm_part a
          | true, None ->
              fun a v ->
                st a v;
                Sitestats.observe bnd.cur_stats ~site:iid ~arg:(-1)
                  (classify_arg a);
                if Layout.is_pm a then pm_part a
          | false, Some c ->
              let spm = c.store_pm_ns and sdr = c.store_dram_ns in
              fun a v ->
                st a v;
                let acc = bnd.cur_acc in
                if Layout.is_pm a then begin
                  pm_part a;
                  acc.fv <- acc.fv +. spm
                end
                else acc.fv <- acc.fv +. sdr
          | true, Some c ->
              let spm = c.store_pm_ns and sdr = c.store_dram_ns in
              fun a v ->
                st a v;
                Sitestats.observe bnd.cur_stats ~site:iid ~arg:(-1)
                  (classify_arg a);
                let acc = bnd.cur_acc in
                if Layout.is_pm a then begin
                  pm_part a;
                  acc.fv <- acc.fv +. spm
                end
                else acc.fv <- acc.fv +. sdr
        in
        match (addr, value) with
        | PReg x, PReg y ->
            fun regs ->
              body (Array.unsafe_get regs x) (Array.unsafe_get regs y);
              next regs
        | PReg x, PImm v ->
            fun regs ->
              body (Array.unsafe_get regs x) v;
              next regs
        | PImm a, PReg y ->
            fun regs ->
              body a (Array.unsafe_get regs y);
              next regs
        | PImm a, PImm v ->
            fun regs ->
              body a v;
              next regs)
    | PFlush { kind; addr } -> (
        let iid = i.iid and loc = i.loc in
        let pm_note : int -> unit =
          if trace then fun a ->
            let m = bnd.cur in
            let seq = next_seq m in
            push_event m
              (Trace.Flush
                 {
                   iid;
                   loc;
                   stack = m.frames;
                   kind;
                   line_addr = Layout.line_base a;
                   seq;
                 })
          else fun _ -> ignore (next_seq bnd.cur)
        in
        let charge_flush : int -> int -> unit =
          match cost with
          | None -> fun _ _ -> ()
          | Some c ->
              let d = c.flush_pm_dirty_ns
              and cl = c.flush_pm_clean_ns
              and v = c.flush_vol_ns in
              fun a moved ->
                let acc = bnd.cur_acc in
                acc.fv <-
                  acc.fv
                  +.
                  if Layout.is_pm a then if moved > 0 then d else cl else v
        in
        let body a =
          let moved = Pstate.flush bnd.cur_ps bnd.cur_mem ~iid ~kind ~addr:a in
          if Layout.is_pm a then pm_note a;
          charge_flush a moved
        in
        match addr with
        | PReg x ->
            fun regs ->
              body (Array.unsafe_get regs x);
              next regs
        | PImm a ->
            fun regs ->
              body a;
              next regs)
    | PFence { kind } ->
        let iid = i.iid and loc = i.loc in
        let note : int -> unit =
          if trace then fun seq ->
            let m = bnd.cur in
            push_event m (Trace.Fence { iid; loc; stack = m.frames; kind; seq })
          else fun _ -> ()
        in
        let charge_fence : int -> unit =
          match cost with
          | None -> fun _ -> ()
          | Some c ->
              let base = c.fence_base_ns and per = c.fence_drain_line_ns in
              fun drained ->
                let acc = bnd.cur_acc in
                acc.fv <- acc.fv +. (base +. (float_of_int drained *. per))
        in
        fun regs ->
          let seq = next_seq bnd.cur in
          let drained = Pstate.fence bnd.cur_ps bnd.cur_mem ~seq in
          note seq;
          charge_fence drained;
          next regs
    | PCall { dst; callee; args; edge } -> (
        let iid = i.iid and loc = i.loc in
        let with_mark (body : code) : code =
          match cov with
          | None -> body
          | Some cv ->
              fun regs ->
                Coverage.mark cv edge;
                body regs
        in
        let charge_call : unit -> unit =
          match cost with
          | None -> fun () -> ()
          | Some c ->
              let ns = c.call_ns in
              fun () ->
                let acc = bnd.cur_acc in
                acc.fv <- acc.fv +. ns
        in
        match callee with
        | Cintrinsic it ->
            let argk k : code =
              if k < Array.length args then evc args.(k)
              else fun _ -> invalid_arg "index out of bounds"
            in
            let compute : code =
              match it with
              | Ipm_alloc ->
                  let a0 = argk 0 in
                  fun regs -> Mem.alloc_pm bnd.cur_mem (a0 regs)
              | Ipm_base -> fun _ -> Layout.pm_base
              | Ipm_size ->
                  let n = cfg.pm_size in
                  fun _ -> n
              | Imalloc ->
                  let a0 = argk 0 in
                  fun regs -> Mem.alloc_vol bnd.cur_mem (a0 regs)
              | Ifree -> fun _ -> 0
              | Iemit ->
                  let a0 = argk 0 in
                  fun regs ->
                    let m = bnd.cur in
                    m.output_rev <- a0 regs :: m.output_rev;
                    0
              | Iabort -> fun _ -> raise Aborted
            in
            with_mark
              (if dst >= 0 then fun regs ->
                 Array.unsafe_set regs dst (compute regs);
                 charge_call ();
                 next regs
               else
                 fun regs ->
                   ignore (compute regs);
                   charge_call ();
                   next regs)
        | Cfunc callee_fi ->
            let getters = Array.map evc args in
            let nargs = Array.length getters in
            let callee_fname = pfuncs.(callee_fi).fname in
            let pre_trace : int array -> unit =
              if trace then fun argv -> (
                let m = bnd.cur in
                Array.iteri
                  (fun k v ->
                    Sitestats.observe bnd.cur_stats ~site:iid ~arg:k
                      (classify_arg v))
                  argv;
                let seq = next_seq m in
                push_event m
                  (Trace.Call
                     {
                       iid;
                       loc;
                       stack = m.frames;
                       callee = callee_fname;
                       arg_classes = Array.to_list (Array.map classify_arg argv);
                       seq;
                     }))
              else fun _ -> ()
            in
            (* The frame is immutable and identical for every execution of
               this site, so one compile-time record is shared. *)
            let frame =
              {
                Trace.func = callee_fname;
                callsite = Some iid;
                callsite_loc = Some loc;
              }
            in
            let body : code =
              if dst >= 0 then
                fun regs ->
                  let argv = Array.make nargs 0 in
                  for k = 0 to nargs - 1 do
                    Array.unsafe_set argv k ((Array.unsafe_get getters k) regs)
                  done;
                  pre_trace argv;
                  let m = bnd.cur in
                  m.frames <- frame :: m.frames;
                  charge_call ();
                  let f =
                    match Array.unsafe_get compiled callee_fi with
                    | Some f -> f
                    | None -> get_fn m callee_fi
                  in
                  let r = f argv in
                  m.frames <- List.tl m.frames;
                  Array.unsafe_set regs dst r;
                  next regs
              else
                fun regs ->
                  let argv = Array.make nargs 0 in
                  for k = 0 to nargs - 1 do
                    Array.unsafe_set argv k ((Array.unsafe_get getters k) regs)
                  done;
                  pre_trace argv;
                  let m = bnd.cur in
                  m.frames <- frame :: m.frames;
                  charge_call ();
                  let f =
                    match Array.unsafe_get compiled callee_fi with
                    | Some f -> f
                    | None -> get_fn m callee_fi
                  in
                  let r = f argv in
                  ignore r;
                  m.frames <- List.tl m.frames;
                  next regs
            in
            with_mark body)
    | PJmp { target; edge } -> jump edge (slot_of target)
    | PCondbr { cond; if_true; if_false; edge_true; edge_false } -> (
        let ts = slot_of if_true and fs = slot_of if_false in
        match cond with
        | PImm n ->
            if n <> 0 then jump edge_true ts else jump edge_false fs
        | PReg x -> (
            match (cov, cost) with
            | None, None ->
                fun regs ->
                  (Array.unsafe_get blocks
                     (if Array.unsafe_get regs x <> 0 then ts else fs))
                    regs
            | Some cv, None ->
                fun regs ->
                  if Array.unsafe_get regs x <> 0 then begin
                    Coverage.mark cv edge_true;
                    (Array.unsafe_get blocks ts) regs
                  end
                  else begin
                    Coverage.mark cv edge_false;
                    (Array.unsafe_get blocks fs) regs
                  end
            | None, Some c ->
                let ns = c.op_ns in
                fun regs ->
                  let acc = bnd.cur_acc in
                  acc.fv <- acc.fv +. ns;
                  (Array.unsafe_get blocks
                     (if Array.unsafe_get regs x <> 0 then ts else fs))
                    regs
            | Some cv, Some c ->
                let ns = c.op_ns in
                fun regs ->
                  let acc = bnd.cur_acc in
                  if Array.unsafe_get regs x <> 0 then begin
                    Coverage.mark cv edge_true;
                    acc.fv <- acc.fv +. ns;
                    (Array.unsafe_get blocks ts) regs
                  end
                  else begin
                    Coverage.mark cv edge_false;
                    acc.fv <- acc.fv +. ns;
                    (Array.unsafe_get blocks fs) regs
                  end))
    | PRet v -> (
        match v with
        | Some (PReg x) -> fun regs -> Array.unsafe_get regs x
        | Some (PImm n) -> fun _ -> n
        | None -> fun _ -> 0)
    | PCrash { edge } -> (
        let siid = Some i.iid and loc = i.loc in
        let body : code =
         fun regs ->
          record_crash_point bnd.cur ~iid:siid ~loc;
          next regs
        in
        match cov with
        | None -> body
        | Some cv ->
            fun regs ->
              Coverage.mark cv edge;
              body regs)
  in
  let counted (body : code) : code =
   fun regs ->
    let m = bnd.cur in
    m.steps <- m.steps + 1;
    if m.steps > fuel then raise Out_of_fuel;
    body regs
  in
  (* Peephole for the fast chain: a comparison immediately followed by
     the conditional branch on its result — the back edge of almost
     every loop the frontends emit. One closure evaluates the predicate,
     still writes [dst] (a later block may read the flag), and transfers
     directly, saving a closure hop per iteration. The two op_ns charges
     stay separate adds in instruction order, so [cost_ns] is
     bit-identical with the unfused chain and the interpreter; only the
     segment-pre-charged fast chain fuses, so [Out_of_fuel] points are
     untouched. *)
  let fuse_cmp_br (a : pinstr) (b : pinstr) : code option =
    match (a.op, b.op) with
    | ( PBinop { dst; op; lhs; rhs },
        PCondbr { cond = PReg cx; if_true; if_false; edge_true; edge_false } )
      when cx = dst ->
        let test : (int array -> bool) option =
          match (op, lhs, rhs) with
          | Instr.Eq, PReg x, PReg y ->
              Some
                (fun regs ->
                  Array.unsafe_get regs x = Array.unsafe_get regs y)
          | Instr.Eq, PReg x, PImm n ->
              Some (fun regs -> Array.unsafe_get regs x = n)
          | Instr.Ne, PReg x, PReg y ->
              Some
                (fun regs ->
                  Array.unsafe_get regs x <> Array.unsafe_get regs y)
          | Instr.Ne, PReg x, PImm n ->
              Some (fun regs -> Array.unsafe_get regs x <> n)
          | Instr.Lt, PReg x, PReg y ->
              Some
                (fun regs ->
                  Array.unsafe_get regs x < Array.unsafe_get regs y)
          | Instr.Lt, PReg x, PImm n ->
              Some (fun regs -> Array.unsafe_get regs x < n)
          | Instr.Le, PReg x, PReg y ->
              Some
                (fun regs ->
                  Array.unsafe_get regs x <= Array.unsafe_get regs y)
          | Instr.Le, PReg x, PImm n ->
              Some (fun regs -> Array.unsafe_get regs x <= n)
          | Instr.Gt, PReg x, PReg y ->
              Some
                (fun regs ->
                  Array.unsafe_get regs x > Array.unsafe_get regs y)
          | Instr.Gt, PReg x, PImm n ->
              Some (fun regs -> Array.unsafe_get regs x > n)
          | Instr.Ge, PReg x, PReg y ->
              Some
                (fun regs ->
                  Array.unsafe_get regs x >= Array.unsafe_get regs y)
          | Instr.Ge, PReg x, PImm n ->
              Some (fun regs -> Array.unsafe_get regs x >= n)
          | _ -> None
        in
        Option.map
          (fun test ->
            let ts = slot_of if_true and fs = slot_of if_false in
            match (cov, cost) with
            | None, None ->
                fun regs ->
                  if test regs then begin
                    Array.unsafe_set regs dst 1;
                    (Array.unsafe_get blocks ts) regs
                  end
                  else begin
                    Array.unsafe_set regs dst 0;
                    (Array.unsafe_get blocks fs) regs
                  end
            | Some cv, None ->
                fun regs ->
                  if test regs then begin
                    Array.unsafe_set regs dst 1;
                    Coverage.mark cv edge_true;
                    (Array.unsafe_get blocks ts) regs
                  end
                  else begin
                    Array.unsafe_set regs dst 0;
                    Coverage.mark cv edge_false;
                    (Array.unsafe_get blocks fs) regs
                  end
            | None, Some c ->
                let ns = c.op_ns in
                fun regs ->
                  let acc = bnd.cur_acc in
                  if test regs then begin
                    Array.unsafe_set regs dst 1;
                    acc.fv <- acc.fv +. ns;
                    acc.fv <- acc.fv +. ns;
                    (Array.unsafe_get blocks ts) regs
                  end
                  else begin
                    Array.unsafe_set regs dst 0;
                    acc.fv <- acc.fv +. ns;
                    acc.fv <- acc.fv +. ns;
                    (Array.unsafe_get blocks fs) regs
                  end
            | Some cv, Some c ->
                let ns = c.op_ns in
                fun regs ->
                  let acc = bnd.cur_acc in
                  if test regs then begin
                    Array.unsafe_set regs dst 1;
                    acc.fv <- acc.fv +. ns;
                    Coverage.mark cv edge_true;
                    acc.fv <- acc.fv +. ns;
                    (Array.unsafe_get blocks ts) regs
                  end
                  else begin
                    Array.unsafe_set regs dst 0;
                    acc.fv <- acc.fv +. ns;
                    Coverage.mark cv edge_false;
                    acc.fv <- acc.fv +. ns;
                    (Array.unsafe_get blocks fs) regs
                  end)
          test
    | _ -> None
  in
  for b = 0 to nblocks - 1 do
    let start = leaders.(b) in
    let stop = if b + 1 < nblocks then leaders.(b + 1) else ncode in
    (* Instructions after the first terminator are unreachable in the
       interpreter too: drop them. *)
    let rec eff j =
      if j >= stop then stop
      else
        match code.(j).op with
        | PJmp _ | PCondbr _ | PRet _ -> j + 1
        | _ -> eff (j + 1)
    in
    let last = eff start in
    let fall : code = fun regs -> (Array.unsafe_get blocks (b + 1)) regs in
    (* Segments: maximal runs that cannot start a nested call (whose steps
       would interleave) or raise Stopped_at_crash. Each segment
       pre-charges its length when fuel allows; otherwise the counted
       chain reproduces the interpreter's exact Out_of_fuel point. *)
    let rec build i : code =
      if i >= last then fall
      else begin
        let rec seg_end j =
          if j >= last then last
          else
            match code.(j).op with
            | PCall _ | PCrash _ -> j + 1
            | _ -> seg_end (j + 1)
        in
        let e = seg_end i in
        let n = e - i in
        let next_seg = build e in
        let rec fast j =
          if j >= e then next_seg
          else if j + 1 < e then
            match fuse_cmp_br code.(j) code.(j + 1) with
            | Some fused -> fused
            | None -> compile_instr code.(j) (fast (j + 1))
          else compile_instr code.(j) (fast (j + 1))
        in
        let rec slow j =
          if j >= e then next_seg
          else counted (compile_instr code.(j) (slow (j + 1)))
        in
        let fastc = fast i in
        (* Built the first time the segment would run out of fuel: most
           machines run with fuel to spare and never need it. A plain
           cell, not [Lazy]: two racing builds are equal, whereas a
           concurrent [Lazy.force] raises. *)
        let slowc = ref None in
        fun regs ->
          let m = bnd.cur in
          let s = m.steps + n in
          if s <= fuel then begin
            m.steps <- s;
            fastc regs
          end
          else
            let c =
              match !slowc with
              | Some c -> c
              | None ->
                  let c = slow i in
                  slowc := Some c;
                  c
            in
            c regs
      end
    in
    blocks.(b) <- build start
  done;
  let b0 : code = if nblocks > 0 then blocks.(0) else fell_off in
  let nparams = Array.length pf.pslots in
  let pslots = pf.pslots in
  let nregs = pf.nregs in
  fun args ->
    if Array.length args <> nparams then
      Mem.trap "@%s called with %d arguments (expects %d)" fname
        (Array.length args) nparams;
    let regs = Array.make nregs 0 in
    for i = 0 to nparams - 1 do
      Array.unsafe_set regs (Array.unsafe_get pslots i) (Array.unsafe_get args i)
    done;
    let mem = bnd.cur_mem in
    let mark = Mem.stack_mark mem in
    let r = b0 regs in
    (* No Fun.protect: like the interpreter, an escaping exception leaves
       the stack allocator unreleased (the run is over anyway). *)
    Mem.stack_release mem mark;
    r

let bind (t : Machine.t) =
  let bnd = t.binding in
  if bnd.cur != t then begin
    bnd.cur <- t;
    bnd.cur_mem <- t.mem;
    bnd.cur_ps <- t.ps;
    bnd.cur_acc <- t.cost_acc;
    bnd.cur_stats <- t.stats
  end

(** [call t name args] — the host entry point, mirroring {!Interp.call}
    exactly but executing compiled closures. *)
let call (t : Machine.t) name args =
  match Hashtbl.find_opt t.fidx name with
  | None -> Mem.trap "call to undefined function @%s" name
  | Some fi ->
      let prev = t.binding.cur in
      bind t;
      t.frames <- [ { Trace.func = name; callsite = None; callsite_loc = None } ];
      Fun.protect
        ~finally:(fun () ->
          t.frames <- [];
          (* A host call into a sibling from inside [prev]'s run hands
             the binding back. Between runs it stays on [t]: rebinding a
             finished machine would keep it, and its pool, alive. *)
          if prev.frames <> [] then bind prev)
        (fun () -> (get_fn t fi) (Array.of_list args))

(** One-shot convenience mirroring {!Interp.run}: run [entry] with [args]
    through the compiled tier, then apply the exit check. *)
let run ?pm_image ?(config = Machine.default_config) prog ~entry ~args =
  let t = Machine.create ?pm_image config prog in
  let ret =
    try Ok (call t entry args) with
    | Machine.Stopped_at_crash -> Error `Stopped_at_crash
    | Machine.Aborted -> Error `Aborted
    | Machine.Out_of_fuel -> Error `Out_of_fuel
  in
  (match ret with Ok _ -> Machine.exit_check t | Error _ -> ());
  (t, ret)
