(** Latency cost model for timed execution.

    Constants (nanoseconds) follow published Optane DC measurements
    (Izraelevitz et al., arXiv:1903.05714, cited by the paper) — the
    absolute values matter less than the ratios: persistence primitives are
    one to two orders of magnitude more expensive than cached operations,
    which is precisely why the intraprocedural-vs-interprocedural fix
    placement tradeoff of §3.2 exists.

    Flushes are charged at issue; the write-back itself is overlapped into
    the write-pending queue and paid when a fence drains it, per distinct
    cache line (this is how clwb behaves: issuing several clwb to one line
    before the fence costs extra issues, not extra write-backs). A flush
    that targets volatile memory forces a DRAM write-back of a dirty line —
    the dominant waste of naive intraprocedural fixes in dual-use helpers
    like [memcpy] (§3.2, §6.3). *)

type t = {
  op_ns : float;  (** plain ALU / branch instruction *)
  load_dram_ns : float;
  store_dram_ns : float;
  load_pm_ns : float;  (** Optane read latency (cache-missing) *)
  store_pm_ns : float;  (** store into cache, destined for PM *)
  flush_pm_dirty_ns : float;  (** clwb issue on a line with dirty PM data *)
  flush_pm_clean_ns : float;  (** clwb issue on an already-clean PM line *)
  flush_vol_ns : float;  (** clwb on volatile memory: DRAM write-back *)
  fence_base_ns : float;  (** sfence with an empty write-pending queue *)
  fence_drain_line_ns : float;
      (** per distinct cache line in which a record the fence drains
          starts ({!Pstate.fence}): a record straddling two lines is
          charged once *)
  call_ns : float;
}

let default =
  {
    op_ns = 0.4;
    load_dram_ns = 1.0;
    store_dram_ns = 1.0;
    load_pm_ns = 3.0;
    store_pm_ns = 1.5;
    flush_pm_dirty_ns = 20.0;
    flush_pm_clean_ns = 12.0;
    flush_vol_ns = 100.0;
    fence_base_ns = 25.0;
    fence_drain_line_ns = 80.0;
    call_ns = 2.0;
  }

(** Variant with pricier fences, used by the ablation benches to check the
    conclusions are robust to the constants. *)
let fence_heavy =
  { default with fence_base_ns = 100.0; fence_drain_line_ns = 160.0 }

(** Variant with free volatile flushes: isolates how much of the
    intraprocedural penalty is DRAM write-backs vs extra fencing. *)
let cheap_vol_flush = { default with flush_vol_ns = 4.0 }
