(** Byte-addressable simulated memory.

    The working PM image is what loads observe; the persisted image is what
    survives a crash. Stores touch only the working image; the persistency
    state machine ({!Pstate}) copies ranges into the persisted image when
    they become durable (flush + fence, or [clflush]).

    Every segment is lazily backed: its buffer holds a prefix of the
    segment and every byte past the buffer's end is zero. An in-bounds
    access past the buffer grows it on an out-of-line slow path, so
    building a machine, taking an image and restarting from one cost
    O(bytes touched), not O(segment size). Segment sizes, bounds checks
    and trap messages are those of an eagerly zeroed segment. PM images
    are trimmed: the bytes up to the last nonzero one.

    With [~track_images:true] the memory additionally maintains, at O(bytes
    changed) per operation, a live {!Imghash} fingerprint of both images —
    the machinery behind the single-pass crash sweep's image capture and
    deduplication ({!Crashsim}). *)

exception Trap of string

let trap fmt = Fmt.kstr (fun m -> raise (Trap m)) fmt

(** Image-fingerprint state, allocated only when tracking is on. *)
type tracker = {
  work_hash : Imghash.t;
  dur_hash : Imghash.t;
  old_buf : int array;  (** scratch for a store's pre-image (<= 8 bytes) *)
}

type t = {
  mutable vol : Bytes.t;
  mutable stack : Bytes.t;
  mutable globals : Bytes.t;
  mutable pm : Bytes.t;  (** working image: CPU-cache view of PM *)
  mutable pm_persisted : Bytes.t;  (** durable image: what a crash preserves *)
  vol_size : int;
  stack_size : int;
  global_size : int;
  pm_size : int;
  mutable vol_brk : int;
  mutable stack_brk : int;
  mutable pm_brk : int;
  global_addrs : (string * int) list;
  track : tracker option;
}

let align8 n = (n + 7) land lnot 7

(* Lazy backing ------------------------------------------------------------ *)

(* A buffer's first allocation; each growth doubles it, up to the segment
   size. *)
let first_backing = 4096

(* [buf] zero-extended to cover [need] bytes of a [cap]-byte segment
   ([need <= cap]). *)
let covering buf ~need ~cap =
  if need <= Bytes.length buf then buf
  else begin
    let len = ref (max first_backing (Bytes.length buf)) in
    while !len < need do
      len := 2 * !len
    done;
    let b = Bytes.make (min !len cap) '\000' in
    Bytes.blit buf 0 b 0 (Bytes.length buf);
    b
  end

(* A PM image in the form images are handed out: the bytes of [buf] up
   to its last nonzero one. Bytes past a buffer are zero, so two trimmed
   images are equal iff the full images are. *)
let trimmed buf =
  let n = ref (Bytes.length buf) in
  while !n >= 8 && Bytes.get_int64_ne buf (!n - 8) = 0L do
    n := !n - 8
  done;
  while !n > 0 && Bytes.get buf (!n - 1) = '\000' do
    decr n
  done;
  Bytes.sub buf 0 !n

let create ?(vol_size = 1 lsl 24) ?(stack_size = 1 lsl 22)
    ?(global_size = 1 lsl 20) ?(pm_size = 1 lsl 24) ?pm_image ?(pm_brk = 0)
    ?(track_images = false) (globals : (string * int) list) =
  let pm =
    match pm_image with
    | Some img ->
        if Bytes.length img > pm_size then
          invalid_arg "Mem.create: pm_image longer than the PM segment";
        Bytes.copy img
    | None -> Bytes.empty
  in
  let global_addrs, _ =
    List.fold_left
      (fun (acc, off) (name, size) ->
        if off + size > global_size then trap "global segment overflow";
        ((name, Layout.global_base + off) :: acc, off + align8 size))
      ([], 0) globals
  in
  let track =
    if not track_images then None
    else
      (* Both images start equal to the seed, so one scratch fingerprint
         seeds both lanes; an unseeded (all-zero) image costs nothing. *)
      let h =
        match pm_image with None -> Imghash.create () | Some _ -> Imghash.of_bytes pm
      in
      Some
        { work_hash = h; dur_hash = Imghash.copy h; old_buf = Array.make 8 0 }
  in
  {
    vol = Bytes.empty;
    stack = Bytes.empty;
    globals = Bytes.empty;
    pm;
    pm_persisted = Bytes.copy pm;
    vol_size;
    stack_size;
    global_size;
    pm_size;
    vol_brk = 0;
    stack_brk = 0;
    pm_brk;
    global_addrs;
    track;
  }

let global_addr t name =
  match List.assoc_opt name t.global_addrs with
  | Some a -> a
  | None -> trap "unknown global @%s" name

let pm_brk t = t.pm_brk

(* Region resolution ------------------------------------------------------- *)

(* The region base is always the address's top nibble, so the offset into
   a segment (and its buffer) is a mask away. *)
let[@inline] seg_off addr = addr land 0x0FFF_FFFF

let[@inline] buf_for t addr =
  match Layout.region_of_addr addr with
  | Layout.Vol_heap -> t.vol
  | Layout.Stack -> t.stack
  | Layout.Globals -> t.globals
  | Layout.Pm -> t.pm
  | Layout.Null_page -> trap "null-page access at 0x%x" addr
  | Layout.Wild -> trap "wild access at 0x%x" addr

(* The slow path of every access: [addr, addr + size) lies past its
   segment's buffer. Traps if it also lies past the segment, exactly as an
   eagerly backed segment would; otherwise grows the buffer to cover it. *)
let[@inline never] cover t addr size =
  let need = seg_off addr + size in
  let grown buf cap =
    if need > cap then trap "out-of-bounds access at 0x%x (size %d)" addr size;
    covering buf ~need ~cap
  in
  match Layout.region_of_addr addr with
  | Layout.Vol_heap ->
      t.vol <- grown t.vol t.vol_size;
      t.vol
  | Layout.Stack ->
      t.stack <- grown t.stack t.stack_size;
      t.stack
  | Layout.Globals ->
      t.globals <- grown t.globals t.global_size;
      t.globals
  | Layout.Pm ->
      t.pm <- grown t.pm t.pm_size;
      t.pm
  | Layout.Null_page -> trap "null-page access at 0x%x" addr
  | Layout.Wild -> trap "wild access at 0x%x" addr

(* The buffer backing [addr, addr + size), at offset [seg_off addr]. *)
let[@inline] backing t addr size =
  let buf = buf_for t addr in
  if seg_off addr + size > Bytes.length buf then cover t addr size else buf

let load t ~addr ~size =
  let buf = backing t addr size and off = seg_off addr in
  match size with
  | 1 -> Bytes.get_uint8 buf off
  | 2 -> Bytes.get_uint16_le buf off
  | 4 -> Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF
  | 8 -> Int64.to_int (Bytes.get_int64_le buf off)
  | _ -> trap "bad load size %d" size

let write_value buf off size v =
  match size with
  | 1 -> Bytes.set_uint8 buf off (v land 0xFF)
  | 2 -> Bytes.set_uint16_le buf off (v land 0xFFFF)
  | 4 -> Bytes.set_int32_le buf off (Int32.of_int v)
  | 8 ->
      (* PMIR is a 63-bit machine (OCaml ints). Mask the sign extension so
         byte 7 of a stored word round-trips through byte-wise loads. *)
      Bytes.set_int64_le buf off
        (Int64.logand (Int64.of_int v) 0x7FFF_FFFF_FFFF_FFFFL)
  | _ -> trap "bad store size %d" size

let store t ~addr ~size v =
  let buf = backing t addr size and off = seg_off addr in
  match t.track with
  | Some tr when Layout.is_pm addr ->
      for k = 0 to size - 1 do
        tr.old_buf.(k) <- Bytes.get_uint8 buf (off + k)
      done;
      write_value buf off size v;
      for k = 0 to size - 1 do
        Imghash.update tr.work_hash ~off:(off + k) ~old_byte:tr.old_buf.(k)
          ~new_byte:(Bytes.get_uint8 buf (off + k))
      done
  | _ -> write_value buf off size v

(* Size-specialized accessors for the compiled execution tier: access size
   (and, for stores, whether image tracking is on) is fixed when a closure
   is compiled, so the per-access size dispatch disappears. Bounds checks
   and trap messages are identical to [load]/[store]; the fast path is one
   compare against the buffer length, then the access with the unsafe
   primitives. [@inline] matters: without flambda these are only inlined
   into the compiled tier's closures when explicitly requested. *)

external unsafe_get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external unsafe_set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] load1 t addr =
  Char.code (Bytes.unsafe_get (backing t addr 1) (seg_off addr))

let[@inline] load2 t addr = unsafe_get16 (backing t addr 2) (seg_off addr)

let[@inline] load4 t addr =
  Int32.to_int (unsafe_get32 (backing t addr 4) (seg_off addr)) land 0xFFFFFFFF

let[@inline] load8 t addr =
  Int64.to_int (unsafe_get64 (backing t addr 8) (seg_off addr))

(* The [storeN] variants bypass the image tracker and must only be used
   when image tracking is off (the compiled tier checks the config's
   [track_images] once, at closure compile time). *)

let[@inline] store1 t addr v =
  Bytes.unsafe_set (backing t addr 1) (seg_off addr)
    (Char.unsafe_chr (v land 0xFF))

let[@inline] store2 t addr v =
  unsafe_set16 (backing t addr 2) (seg_off addr) (v land 0xFFFF)

let[@inline] store4 t addr v =
  unsafe_set32 (backing t addr 4) (seg_off addr) (Int32.of_int v)

let[@inline] store8 t addr v =
  unsafe_set64 (backing t addr 8) (seg_off addr)
    (Int64.logand (Int64.of_int v) 0x7FFF_FFFF_FFFF_FFFFL)

(* Copy [len] working/snapshot bytes into the persisted image at [off],
   keeping the durable fingerprint current byte by byte. *)
let persist_tracked tr dst ~off ~len ~byte_at =
  for k = off to off + len - 1 do
    let old_byte = Bytes.get_uint8 dst k in
    let new_byte = byte_at k in
    if old_byte <> new_byte then begin
      Imghash.update tr.dur_hash ~off:k ~old_byte ~new_byte;
      Bytes.set_uint8 dst k new_byte
    end
  done

(** [persist_range t ~addr ~size] copies working PM content into the
    persisted image (called by {!Pstate} when a range becomes durable). *)
let persist_range t ~addr ~size =
  let off = addr - Layout.pm_base in
  if off < 0 || off + size > t.pm_size then
    trap "persist_range outside PM at 0x%x" addr;
  let need = off + size and cap = t.pm_size in
  t.pm <- covering t.pm ~need ~cap;
  t.pm_persisted <- covering t.pm_persisted ~need ~cap;
  match t.track with
  | Some tr ->
      persist_tracked tr t.pm_persisted ~off ~len:size ~byte_at:(fun k ->
          Bytes.get_uint8 t.pm k)
  | None -> Bytes.blit t.pm off t.pm_persisted off size

(** [persist_string t ~addr s] makes a flush-time snapshot durable: the
    snapshot bytes (not the current working bytes) are what the flush
    wrote back. {!Pstate} calls this when a fence drains the write-pending
    queue. *)
let persist_string t ~addr s =
  let off = addr - Layout.pm_base in
  let len = String.length s in
  if off < 0 || off + len > t.pm_size then
    trap "persist_string outside PM at 0x%x" addr;
  t.pm_persisted <- covering t.pm_persisted ~need:(off + len) ~cap:t.pm_size;
  match t.track with
  | Some tr ->
      persist_tracked tr t.pm_persisted ~off ~len ~byte_at:(fun k ->
          Char.code (String.unsafe_get s (k - off)))
  | None -> Bytes.blit_string s 0 t.pm_persisted off len

(** The durable image, trimmed: the post-crash PM contents. *)
let crash_image t = trimmed t.pm_persisted

(** The working image, trimmed (as if everything had reached PM). *)
let working_image t = trimmed t.pm

(* Image tracking ---------------------------------------------------------- *)

let tracker t =
  match t.track with
  | Some tr -> tr
  | None -> trap "image tracking is off (create with ~track_images:true)"

(** Live fingerprint of the working image. Requires tracking. *)
let working_digest t = Imghash.digest (tracker t).work_hash

(** Live fingerprint of the durable image. Requires tracking. *)
let durable_digest t = Imghash.digest (tracker t).dur_hash

(* Allocators ------------------------------------------------------------- *)

let alloc_vol t size =
  let size = align8 (max size 1) in
  if t.vol_brk + size > t.vol_size then trap "volatile heap exhausted";
  let addr = Layout.vol_base + t.vol_brk in
  t.vol_brk <- t.vol_brk + size;
  addr

(** PM allocations are cache-line aligned, as PMDK's allocator guarantees;
    this keeps distinct objects from sharing flush granules. *)
let alloc_pm t size =
  let size = (max size 1 + 63) land lnot 63 in
  if t.pm_brk + size > t.pm_size then trap "persistent heap exhausted";
  let addr = Layout.pm_base + t.pm_brk in
  t.pm_brk <- t.pm_brk + size;
  addr

let stack_mark t = t.stack_brk

let stack_release t mark = t.stack_brk <- mark

let alloc_stack t size =
  let size = align8 (max size 1) in
  if t.stack_brk + size > t.stack_size then trap "stack overflow";
  let addr = Layout.stack_base + t.stack_brk in
  t.stack_brk <- t.stack_brk + size;
  addr

(* Host-side convenience accessors ---------------------------------------- *)

(* Whether [addr, addr + len) is nonempty and lies inside one segment (and
   so inside one region): one range check then covers every byte. *)
let in_one_segment t addr len =
  let seg =
    match Layout.region_of_addr addr with
    | Layout.Vol_heap -> t.vol_size
    | Layout.Stack -> t.stack_size
    | Layout.Globals -> t.global_size
    | Layout.Pm -> t.pm_size
    | Layout.Null_page | Layout.Wild -> 0
  in
  len > 0 && seg_off addr + len <= min seg 0x1000_0000

(* A range that leaves its segment goes byte by byte, so it writes the same
   prefix and traps with the same message as [len] single-byte stores. *)
let write_string t ~addr s =
  let len = String.length s in
  if not (in_one_segment t addr len) then
    String.iteri (fun i c -> store t ~addr:(addr + i) ~size:1 (Char.code c)) s
  else
    let buf = backing t addr len and off = seg_off addr in
    match t.track with
    | Some tr when Layout.is_pm addr ->
        for k = 0 to len - 1 do
          let old_byte = Bytes.get_uint8 buf (off + k) in
          let new_byte = Char.code (String.unsafe_get s k) in
          Imghash.update tr.work_hash ~off:(off + k) ~old_byte ~new_byte;
          Bytes.set_uint8 buf (off + k) new_byte
        done
    | _ -> Bytes.blit_string s 0 buf off len

let read_string t ~addr ~len =
  if in_one_segment t addr len then
    Bytes.sub_string (backing t addr len) (seg_off addr) len
  else
    String.init len (fun i ->
        Char.chr (load t ~addr:(addr + i) ~size:1 land 0xFF))
