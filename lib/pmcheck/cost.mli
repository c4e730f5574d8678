(** Latency cost model for timed execution.

    Constants (nanoseconds) follow published Optane DC measurements
    (Izraelevitz et al., arXiv:1903.05714, cited by the paper); only the
    ratios matter for the evaluation's shape. Flushes are charged at
    issue; the write-back is overlapped into the write-pending queue and
    paid when a fence drains it, per distinct cache line. A flush that
    targets volatile memory forces a DRAM write-back of a dirty line — the
    dominant waste of naive intraprocedural fixes in dual-use helpers like
    [memcpy] (§3.2, §6.3). *)

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

val default : t

(** Pricier fences: the ablation that checks conclusions are robust to the
    constants. *)
val fence_heavy : t

(** Free-ish volatile flushes: isolates how much of the intraprocedural
    penalty is DRAM write-backs. *)
val cheap_vol_flush : t
