(** Byte-addressable simulated memory.

    The working PM image is what loads observe; the persisted image is what
    survives a crash. Stores touch only the working image; the persistency
    state machine ({!Pstate}) copies ranges into the persisted image when
    they become durable (flush + fence, or [clflush]).

    Every segment is paged, as a DAX-mapped pool is: the volatile heap, the
    stack, the globals and the PM working image are each a table of 4 KB
    pages, and the durable image is a second table over the PM segment. A
    page is allocated zero-filled the first time an access needs it, so
    building a machine, taking an image and restarting from one cost
    O(bytes touched), not O(segment size), and no buffer is ever grown or
    copied whole. Segment sizes, bounds checks and trap messages are those
    of an eagerly zeroed segment. PM images are trimmed: the bytes up to
    the last nonzero one.

    With [~track_images:true] the memory additionally maintains, at O(bytes
    changed) per operation, a live {!Imghash} fingerprint of both images —
    the machinery behind the single-pass crash sweep's image capture and
    deduplication ({!Crashsim}). *)

exception Trap of string

let trap fmt = Fmt.kstr (fun m -> raise (Trap m)) fmt

(** Image-fingerprint state, allocated only when tracking is on. *)
type tracker = { work_hash : Imghash.t; dur_hash : Imghash.t }

(* Page tables, segment sizes and bump pointers share one index: entries 1
   to 4 are the segments of {!Layout}'s map, numbered by an address's top
   nibble (1 volatile heap, 2 stack, 3 globals, 4 PM), so segment [k]'s
   base address is [k lsl 28]; entry 5 is the durable image. Entry 0 (the
   null page and the other addresses below the heap) is an empty segment,
   so an access there always reaches the slow path, which traps. *)
let heap = 1
let stack = 2
let pm = 4 (* the working image: CPU-cache view of PM *)
let durable = 5 (* what a crash preserves *)

type t = {
  pages : Bytes.t array array;
  size : int array;
  brk : int array;  (** only the heap's, the stack's and PM's move *)
  global_addrs : (string * int) list;
  track : tracker option;
}

let align8 n = (n + 7) land lnot 7

(* The offset into a segment is a mask away. *)
let[@inline] seg_off addr = addr land 0x0FFF_FFFF

(* Pages ------------------------------------------------------------------- *)

(* A table is indexed by [seg_off addr lsr page_bits]. A page's buffer
   holds a prefix of the page and every byte past it is zero: [Bytes.empty]
   until an access needs the page, then the whole page, whose length for
   the segment's last page ends where the segment ends. Only a seed image's
   last chunk is shorter ({!create} copies each chunk at its own length).
   So a page's length bounds every access, as the segment's size would.
   A table grows by doubling to the highest page touched. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let[@inline] page_of tbl i =
  if i < Array.length tbl then Array.unsafe_get tbl i else Bytes.empty

(* Page [i] of table [k], a page inside the segment, backed at its full
   length; the table grows first if need be. *)
let[@inline never] back t k i =
  let size = t.size.(k) and tbl = t.pages.(k) in
  let tbl =
    if i < Array.length tbl then tbl
    else begin
      let count = (size + page_mask) lsr page_bits in
      let grown =
        Array.make (min count (max (i + 1) (2 * Array.length tbl))) Bytes.empty
      in
      Array.blit tbl 0 grown 0 (Array.length tbl);
      t.pages.(k) <- grown;
      grown
    end
  in
  let p = tbl.(i) and len = min page_size (size - (i lsl page_bits)) in
  if Bytes.length p >= len then p
  else begin
    let full = Bytes.make len '\000' in
    Bytes.blit p 0 full 0 (Bytes.length p);
    tbl.(i) <- full;
    full
  end

(* The page of table [k] holding segment offset [off], backed up to
   [off + len]; [off, off + len) lies inside one page of the segment. *)
let page_at t k off len =
  let p = page_of t.pages.(k) (off lsr page_bits) in
  if (off land page_mask) + len <= Bytes.length p then p
  else back t k (off lsr page_bits)

(* A seed image as a page table: one copy per chunk, at the chunk's own
   length. *)
let pages_of img =
  let len = Bytes.length img in
  Array.init
    ((len + page_mask) lsr page_bits)
    (fun i ->
      let base = i lsl page_bits in
      Bytes.sub img base (min page_size (len - base)))

(* The image a page table holds, in the form images are handed out: its
   bytes up to the last nonzero one. Bytes past a page's buffer are zero,
   so two trimmed images are equal iff the full images are. *)
let trimmed tbl =
  let len = ref 0 and i = ref (Array.length tbl - 1) in
  while !len = 0 && !i >= 0 do
    let p = tbl.(!i) in
    let n = ref (Bytes.length p) in
    while !n >= 8 && Bytes.get_int64_ne p (!n - 8) = 0L do
      n := !n - 8
    done;
    while !n > 0 && Bytes.get p (!n - 1) = '\000' do
      decr n
    done;
    if !n > 0 then len := (!i lsl page_bits) + !n;
    decr i
  done;
  let img = Bytes.create !len in
  for i = 0 to ((!len + page_mask) lsr page_bits) - 1 do
    let base = i lsl page_bits in
    let n = min page_size (!len - base) in
    let backed = min n (Bytes.length tbl.(i)) in
    Bytes.blit tbl.(i) 0 img base backed;
    Bytes.fill img (base + backed) (n - backed) '\000'
  done;
  img

let create ?(vol_size = 1 lsl 24) ?(stack_size = 1 lsl 22)
    ?(global_size = 1 lsl 20) ?(pm_size = 1 lsl 24) ?pm_image ?(pm_brk = 0)
    ?(track_images = false) (globals : (string * int) list) =
  let img = Option.value pm_image ~default:Bytes.empty in
  if Bytes.length img > pm_size then
    invalid_arg "Mem.create: pm_image longer than the PM segment";
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
        match pm_image with
        | None -> Imghash.create ()
        | Some _ -> Imghash.of_bytes img
      in
      Some { work_hash = h; dur_hash = Imghash.copy h }
  in
  {
    pages = [| [||]; [||]; [||]; [||]; pages_of img; pages_of img |];
    size = [| 0; vol_size; stack_size; global_size; pm_size; pm_size |];
    brk = [| 0; 0; 0; 0; pm_brk; 0 |];
    global_addrs;
    track;
  }

let global_addr t name =
  match List.assoc_opt name t.global_addrs with
  | Some a -> a
  | None -> trap "unknown global @%s" name

let pm_brk t = t.brk.(pm)

(* Slow path ---------------------------------------------------------------- *)

(* The slow path's first step: traps if [addr, addr + size) lies outside
   its segment, exactly as an eagerly backed segment would. *)
let check t addr size =
  match Layout.region_of_addr addr with
  | Layout.Null_page -> trap "null-page access at 0x%x" addr
  | Layout.Wild -> trap "wild access at 0x%x" addr
  | Layout.Vol_heap | Layout.Stack | Layout.Globals | Layout.Pm ->
      if seg_off addr + size > t.size.(addr lsr 28) then
        trap "out-of-bounds access at 0x%x (size %d)" addr size

let[@inline] is_pm addr = addr lsr 28 = pm

(* Byte [a] of an access [check] has passed. *)
let get_byte t a =
  Bytes.get_uint8 (page_at t (a lsr 28) (seg_off a) 1) (a land page_mask)

let set_byte t a b =
  Bytes.set_uint8 (page_at t (a lsr 28) (seg_off a) 1) (a land page_mask) b

let valid_size = function 1 | 2 | 4 | 8 -> true | _ -> false

(* Slow paths of the sized accessors: a trap, a first touch, or an access
   crossing a page boundary. They go byte by byte, little-endian; an
   8-byte value's byte 7 loses the sign extension, as the fast path's
   mask does. *)
let[@inline never] load_slow t addr size =
  check t addr size;
  if not (valid_size size) then trap "bad load size %d" size;
  let v = ref 0 in
  for k = size - 1 downto 0 do
    v := (!v lsl 8) lor get_byte t (addr + k)
  done;
  !v

let[@inline never] store_slow t addr size v =
  check t addr size;
  if not (valid_size size) then trap "bad store size %d" size;
  for k = 0 to size - 1 do
    set_byte t (addr + k) ((v lsr (8 * k)) land 0xFF)
  done

(* Sized accessors --------------------------------------------------------- *)

(* The compiled tier fixes an access's size (and, for stores, whether image
   tracking is on) when it compiles a closure, so there is no per-access
   size dispatch. An access indexes the page tables with its address's top
   nibble, without calling into [Layout] (dune's default profile compiles
   modules opaquely, so that would be a function call on every access),
   loads its page and compares once against the page's length. Everything
   else takes the slow path. [@inline] folds the helpers into each
   accessor; it inlines the accessors into the compiled tier's closures
   only in builds that do not compile modules opaquely. *)

(* The working page holding [addr] at [addr land page_mask], or
   [Bytes.empty] if it is not backed yet or [addr] is in no segment. *)
let[@inline] page t addr =
  let k = addr lsr 28 in
  if k <= pm then
    page_of (Array.unsafe_get t.pages k) (seg_off addr lsr page_bits)
  else Bytes.empty

external unsafe_get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external unsafe_set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get1 t buf off addr =
  if off < Bytes.length buf then Char.code (Bytes.unsafe_get buf off)
  else load_slow t addr 1

let[@inline] get2 t buf off addr =
  if off + 2 <= Bytes.length buf then unsafe_get16 buf off
  else load_slow t addr 2

let[@inline] get4 t buf off addr =
  if off + 4 <= Bytes.length buf then
    Int32.to_int (unsafe_get32 buf off) land 0xFFFFFFFF
  else load_slow t addr 4

let[@inline] get8 t buf off addr =
  if off + 8 <= Bytes.length buf then Int64.to_int (unsafe_get64 buf off)
  else load_slow t addr 8

let[@inline] load1 t addr = get1 t (page t addr) (addr land page_mask) addr
let[@inline] load2 t addr = get2 t (page t addr) (addr land page_mask) addr
let[@inline] load4 t addr = get4 t (page t addr) (addr land page_mask) addr
let[@inline] load8 t addr = get8 t (page t addr) (addr land page_mask) addr

(* The [storeN] variants bypass the image tracker and must only be used
   when image tracking is off (the compiled tier checks the config's
   [track_images] once, at closure compile time). *)

let[@inline] set1 t buf off addr v =
  if off < Bytes.length buf then
    Bytes.unsafe_set buf off (Char.unsafe_chr (v land 0xFF))
  else store_slow t addr 1 v

let[@inline] set2 t buf off addr v =
  if off + 2 <= Bytes.length buf then unsafe_set16 buf off (v land 0xFFFF)
  else store_slow t addr 2 v

let[@inline] set4 t buf off addr v =
  if off + 4 <= Bytes.length buf then unsafe_set32 buf off (Int32.of_int v)
  else store_slow t addr 4 v

(* PMIR is a 63-bit machine (OCaml ints). Mask the sign extension so byte 7
   of a stored word round-trips through byte-wise loads. *)
let[@inline] set8 t buf off addr v =
  if off + 8 <= Bytes.length buf then
    unsafe_set64 buf off (Int64.logand (Int64.of_int v) 0x7FFF_FFFF_FFFF_FFFFL)
  else store_slow t addr 8 v

let[@inline] store1 t addr v = set1 t (page t addr) (addr land page_mask) addr v
let[@inline] store2 t addr v = set2 t (page t addr) (addr land page_mask) addr v
let[@inline] store4 t addr v = set4 t (page t addr) (addr land page_mask) addr v
let[@inline] store8 t addr v = set8 t (page t addr) (addr land page_mask) addr v

let load t ~addr ~size =
  match size with
  | 1 -> load1 t addr
  | 2 -> load2 t addr
  | 4 -> load4 t addr
  | 8 -> load8 t addr
  | _ -> load_slow t addr size

let store t ~addr ~size v =
  match t.track with
  | Some tr when is_pm addr ->
      check t addr size;
      if not (valid_size size) then trap "bad store size %d" size;
      for k = 0 to size - 1 do
        let a = addr + k in
        let old_byte = get_byte t a and new_byte = (v lsr (8 * k)) land 0xFF in
        set_byte t a new_byte;
        Imghash.update tr.work_hash ~off:(seg_off a) ~old_byte ~new_byte
      done
  | _ -> (
      match size with
      | 1 -> store1 t addr v
      | 2 -> store2 t addr v
      | 4 -> store4 t addr v
      | 8 -> store8 t addr v
      | _ -> store_slow t addr size v)

(* Persistence ------------------------------------------------------------- *)

(* Copy [len] bytes into durable page [dst] at page offset [po] (PM offset
   [off]), keeping the durable fingerprint current byte by byte. *)
let persist_tracked tr dst ~po ~off ~len ~byte_at =
  for k = 0 to len - 1 do
    let old_byte = Bytes.get_uint8 dst (po + k) in
    let new_byte = byte_at k in
    if old_byte <> new_byte then begin
      Imghash.update tr.dur_hash ~off:(off + k) ~old_byte ~new_byte;
      Bytes.set_uint8 dst (po + k) new_byte
    end
  done

(* Each loop below walks the pages of a segment range [off, stop): page
   [i] holds its bytes [lo, lo + n), at page offset [lo land page_mask]. *)

(** [persist_range t ~addr ~size] copies working PM content into the
    persisted image (called by {!Pstate} when a range becomes durable). *)
let persist_range t ~addr ~size =
  let off = addr - Layout.pm_base in
  if off < 0 || off + size > t.size.(pm) then
    trap "persist_range outside PM at 0x%x" addr;
  let stop = off + size in
  for i = off lsr page_bits to (stop - 1) asr page_bits do
    let lo = max off (i lsl page_bits) in
    let n = min stop ((i + 1) lsl page_bits) - lo and po = lo land page_mask in
    let src = page_at t pm lo n and dst = page_at t durable lo n in
    match t.track with
    | Some tr ->
        persist_tracked tr dst ~po ~off:lo ~len:n ~byte_at:(fun k ->
            Bytes.get_uint8 src (po + k))
    | None -> Bytes.blit src po dst po n
  done

(** [persist_string t ~addr s] makes a flush-time snapshot durable: the
    snapshot bytes (not the current working bytes) are what the flush
    wrote back. {!Pstate} calls this when a fence drains the write-pending
    queue. *)
let persist_string t ~addr s =
  let off = addr - Layout.pm_base in
  let stop = off + String.length s in
  if off < 0 || stop > t.size.(pm) then
    trap "persist_string outside PM at 0x%x" addr;
  for i = off lsr page_bits to (stop - 1) asr page_bits do
    let lo = max off (i lsl page_bits) in
    let n = min stop ((i + 1) lsl page_bits) - lo and po = lo land page_mask in
    let dst = page_at t durable lo n in
    match t.track with
    | Some tr ->
        persist_tracked tr dst ~po ~off:lo ~len:n ~byte_at:(fun k ->
            Char.code (String.unsafe_get s (lo - off + k)))
    | None -> Bytes.blit_string s (lo - off) dst po n
  done

(** The durable image, trimmed: the post-crash PM contents. *)
let crash_image t = trimmed t.pages.(durable)

(** The working image, trimmed (as if everything had reached PM). *)
let working_image t = trimmed t.pages.(pm)

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

(* Moves segment [k]'s bump pointer past [size] bytes rounded up to [align]
   (a power of two) and returns the address it pointed at. *)
let bump t k ~align size exhausted =
  let size = (max size 1 + align - 1) land lnot (align - 1) in
  let brk = t.brk.(k) in
  if brk + size > t.size.(k) then raise (Trap exhausted);
  t.brk.(k) <- brk + size;
  (k lsl 28) + brk

let alloc_vol t size = bump t heap ~align:8 size "volatile heap exhausted"

(** PM allocations are cache-line aligned, as PMDK's allocator guarantees;
    this keeps distinct objects from sharing flush granules. *)
let alloc_pm t size = bump t pm ~align:64 size "persistent heap exhausted"

let alloc_stack t size = bump t stack ~align:8 size "stack overflow"
let stack_mark t = t.brk.(stack)
let stack_release t mark = t.brk.(stack) <- mark

(* Host-side convenience accessors ---------------------------------------- *)

(* Whether [addr, addr + len) is nonempty and lies inside one segment: one
   range check then covers every byte. *)
let in_one_segment t addr len =
  let k = addr lsr 28 in
  len > 0 && k <= pm && seg_off addr + len <= min t.size.(k) 0x1000_0000

(* A range that leaves its segment goes byte by byte, so it writes the same
   prefix and traps with the same message as [len] single-byte stores; a
   range in a tracked PM image goes byte by byte through the tracker. *)
let write_string t ~addr s =
  let len = String.length s in
  if
    (not (in_one_segment t addr len))
    || (is_pm addr && Option.is_some t.track)
  then
    String.iteri (fun i c -> store t ~addr:(addr + i) ~size:1 (Char.code c)) s
  else
    let k = addr lsr 28 and off = seg_off addr in
    let stop = off + len in
    for i = off lsr page_bits to (stop - 1) asr page_bits do
      let lo = max off (i lsl page_bits) in
      let n = min stop ((i + 1) lsl page_bits) - lo in
      Bytes.blit_string s (lo - off) (page_at t k lo n) (lo land page_mask) n
    done

let read_string t ~addr ~len =
  if not (in_one_segment t addr len) then
    String.init len (fun i ->
        Char.chr (load t ~addr:(addr + i) ~size:1 land 0xFF))
  else
    let k = addr lsr 28 and off = seg_off addr in
    let stop = off + len and s = Bytes.create len in
    for i = off lsr page_bits to (stop - 1) asr page_bits do
      let lo = max off (i lsl page_bits) in
      let n = min stop ((i + 1) lsl page_bits) - lo in
      Bytes.blit (page_at t k lo n) (lo land page_mask) s (lo - off) n
    done;
    Bytes.unsafe_to_string s
