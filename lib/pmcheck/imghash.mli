(** Incremental 128-bit PM-image fingerprints (Zobrist-style XOR hash).

    The digest of an image is the XOR over all offsets of a mixed
    [(offset, byte)] value; zero bytes contribute nothing. XOR makes the
    digest order-independent and maintainable in O(bytes changed):
    {!Mem} keeps a live fingerprint of the working and durable PM images
    so the crash sweep can deduplicate byte-identical crash states
    without copying or rehashing them (DESIGN.md §7b). *)

type digest = { h1 : int64; h2 : int64 }

val zero_digest : digest
(** Digest of an all-zero image. *)

val equal_digest : digest -> digest -> bool

type t
(** A mutable fingerprint accumulator. *)

val create : unit -> t
(** Fingerprint of an all-zero image. *)

val copy : t -> t
val reset : t -> unit

val update : t -> off:int -> old_byte:int -> new_byte:int -> unit
(** Re-fingerprint one byte change at [off]. A no-op when the byte is
    unchanged. *)

val of_bytes : Bytes.t -> t
(** Fingerprint an image from scratch — the ground truth every sequence
    of {!update}s must agree with. *)

val digest : t -> digest

module Digest_key : Hashtbl.HashedType with type t = digest
