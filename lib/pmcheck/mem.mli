(** Byte-addressable simulated memory.

    The working PM image is what loads observe; the persisted image is
    what survives a crash. Stores touch only the working image; the
    persistency state machine ({!Pstate}) copies ranges into the persisted
    image when they become durable (flush + fence, or [clflush]).

    PMIR is a 63-bit machine (OCaml ints): 8-byte stores mask the sign
    extension so byte 7 round-trips through byte-wise loads.

    Segments are lazily backed: a machine, an image and a restart cost
    O(bytes touched), not O(segment size). Every segment (volatile heap,
    stack, globals and the PM working image) is held in 4 KB pages, and
    so is the durable image; a page is allocated the first time an
    access needs it, so a segment costs the pages the program touched.
    No program can tell — segment sizes, bounds checks, trap messages
    and allocator exhaustion points are those of eagerly zeroed
    segments. PM images are trimmed: an image is its bytes up to the
    last nonzero one, so [Bytes.equal] is image equality and every byte
    past an image's end is zero.

    With [~track_images:true] the memory additionally maintains, at
    O(bytes changed) per operation, a live {!Imghash} fingerprint of both
    images — the machinery behind the single-pass crash sweep's image
    capture and dedup ({!Crashsim}). *)

exception Trap of string
(** Raised on invalid accesses (out of bounds, null page, wild pointers,
    bad sizes) and resource exhaustion. *)

val trap : ('a, Format.formatter, unit, 'b) format4 -> 'a

type t

(** [create globals] builds a fresh memory; [?pm_image] seeds both PM
    images (a restart from a previous durable image: any image no longer
    than [pm_size], trimmed or not, of which only its length is copied,
    one page-sized chunk at a time);
    [?pm_brk] restores the PM allocator's high-water mark alongside the
    image — a real PM allocator persists its heap metadata, so a
    restarted program must not re-issue addresses that are already in
    use (default 0: a fresh pool); [?track_images] (default false) turns
    on image fingerprinting. *)
val create :
  ?vol_size:int ->
  ?stack_size:int ->
  ?global_size:int ->
  ?pm_size:int ->
  ?pm_image:Bytes.t ->
  ?pm_brk:int ->
  ?track_images:bool ->
  (string * int) list ->
  t

val global_addr : t -> string -> int

(** The PM allocator's high-water mark (a restart passes it back as
    [create ?pm_brk]; see {!Machine.restart}). *)
val pm_brk : t -> int

(** Little-endian load/store of 1, 2, 4 or 8 bytes. *)
val load : t -> addr:int -> size:int -> int

val store : t -> addr:int -> size:int -> int -> unit

(** Size-specialized variants for the compiled tier: same bounds checks
    and trap messages as [load]/[store], without the per-access size
    dispatch. The [storeN] variants bypass the image tracker and must only
    be used when image tracking is off. *)

val load1 : t -> int -> int
val load2 : t -> int -> int
val load4 : t -> int -> int
val load8 : t -> int -> int
val store1 : t -> int -> int -> unit
val store2 : t -> int -> int -> unit
val store4 : t -> int -> int -> unit
val store8 : t -> int -> int -> unit

(** [persist_range t ~addr ~size] copies working PM content into the
    persisted image (called by {!Pstate} when a range becomes durable). *)
val persist_range : t -> addr:int -> size:int -> unit

(** [persist_string t ~addr s] makes a flush-time snapshot durable — the
    snapshot bytes, not the current working bytes, are what the flush
    wrote back ({!Pstate}'s write-pending-queue drain). *)
val persist_string : t -> addr:int -> string -> unit

(** The durable image, trimmed: the post-crash PM contents. O(bytes
    touched). *)
val crash_image : t -> Bytes.t

(** The working image, trimmed (as if everything had reached PM).
    O(bytes touched). *)
val working_image : t -> Bytes.t

(** Live fingerprint of the working image, maintained incrementally.
    This and {!durable_digest} trap when image tracking is off. *)
val working_digest : t -> Imghash.digest

(** Live fingerprint of the durable image, maintained incrementally. *)
val durable_digest : t -> Imghash.digest

val alloc_vol : t -> int -> int

(** PM allocations are cache-line aligned, as PMDK's allocator guarantees;
    distinct objects never share flush granules. *)
val alloc_pm : t -> int -> int

(** Per-call-frame stack discipline for [alloca]. *)
val stack_mark : t -> int

val stack_release : t -> int -> unit
val alloc_stack : t -> int -> int

(** Host-side convenience accessors (the "client" writing wire buffers).
    A range inside one segment is copied in one step; one that leaves its
    segment writes the same prefix and traps with the same message as the
    equivalent single-byte stores. *)
val write_string : t -> addr:int -> string -> unit

val read_string : t -> addr:int -> len:int -> string
