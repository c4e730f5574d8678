(** The YCSB core workloads (Cooper et al., SoCC'10), as used by the
    paper's Redis experiment (§6.3): Load plus A-F.

    | Workload | Mix                                 | Distribution |
    |----------|-------------------------------------|--------------|
    | Load     | 100% insert                         | sequential   |
    | A        | 50% read, 50% update                | zipfian      |
    | B        | 95% read, 5% update                 | zipfian      |
    | C        | 100% read                           | zipfian      |
    | D        | 95% read, 5% insert                 | latest       |
    | E        | 95% scan, 5% insert                 | zipfian      |
    | F        | 50% read, 50% read-modify-write     | zipfian      | *)

type op =
  | Read of int
  | Update of int
  | Insert of int
  | Scan of int * int  (** start key, length *)
  | Read_modify_write of int

type kind = Load | A | B | C | D | E | F

let kind_to_string = function
  | Load -> "Load"
  | A -> "A"
  | B -> "B"
  | C -> "C"
  | D -> "D"
  | E -> "E"
  | F -> "F"

let all_kinds = [ Load; A; B; C; D; E; F ]

type spec = {
  kind : kind;
  record_count : int;  (** records loaded before the run *)
  op_count : int;
  max_scan_len : int;
}

let default_spec kind =
  { kind; record_count = 10_000; op_count = 10_000; max_scan_len = 10 }

(** Stream the operation sequence for a trial without materializing it.
    Inserts use keys beyond the loaded range, as YCSB does.

    Each traversal from the returned head allocates its own PRNG and
    zipfian state, so restarting from the head always replays the same
    deterministic stream. Intermediate nodes are ephemeral: they share
    the traversal's PRNG, so a mid-sequence node must be consumed at
    most once (million-op runs pull each op exactly once anyway). *)
let seq (spec : spec) ~seed : op Seq.t =
 fun () ->
  let rng = Rng.create ~seed in
  let zipf = Zipfian.create spec.record_count in
  let inserted = ref spec.record_count in
  let pick () = Zipfian.next zipf rng in
  let insert () =
    let k = !inserted in
    incr inserted;
    Insert k
  in
  let gen =
    match spec.kind with
    | Load -> fun i -> Insert i
    | A ->
        fun _ ->
          if Rng.int rng 100 < 50 then Read (pick ()) else Update (pick ())
    | B ->
        fun _ ->
          if Rng.int rng 100 < 95 then Read (pick ()) else Update (pick ())
    | C -> fun _ -> Read (pick ())
    | D ->
        fun _ ->
          if Rng.int rng 100 < 95 then
            Read (Zipfian.latest zipf rng ~n:!inserted)
          else insert ()
    | E ->
        fun _ ->
          if Rng.int rng 100 < 95 then
            Scan (pick (), 1 + Rng.int rng spec.max_scan_len)
          else insert ()
    | F ->
        fun _ ->
          if Rng.int rng 100 < 50 then Read (pick ())
          else Read_modify_write (pick ())
  in
  let n = match spec.kind with Load -> spec.record_count | _ -> spec.op_count in
  let rec node i () = if i >= n then Seq.Nil else Seq.Cons (gen i, node (i + 1)) in
  node 0 ()

(** Materialized form of {!seq} (the historical API). The generator
    applies the PRNG in stream order, so this equals the streaming
    sequence element for element. *)
let ops (spec : spec) ~seed : op list = List.of_seq (seq spec ~seed)

(** YCSB-style keys: zero-padded decimal with a fixed prefix, 16 bytes
    ([Printf]'s ["user%012d"]: wider for keys of 10^12 and above, and for
    negative ones). *)
let key_bytes k =
  if k < 0 || k >= 1_000_000_000_000 then Printf.sprintf "user%012d" k
  else begin
    let b = Bytes.create 16 in
    Bytes.blit_string "user" 0 b 0 4;
    let k = ref k in
    for i = 15 downto 4 do
      Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (!k mod 10)));
      k := !k / 10
    done;
    Bytes.unsafe_to_string b
  end

(* A value's bytes depend only on its seed modulo 64: the 64 values. *)
let values =
  Array.init 64 (fun seed ->
      String.init 96 (fun idx ->
          Char.chr (((seed + (idx * 7)) land 0x3F) + 0x20)))

(** Deterministic 96-byte values derived from the key and a version. *)
let value_bytes ~k ~version = values.(((k * 31) + version) land 0x3F)
