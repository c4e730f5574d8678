(** Incremental 128-bit PM-image fingerprints.

    A Zobrist-style hash: the digest of an image is the XOR, over every
    byte offset, of a mixed value derived from [(offset, byte)]. XOR makes
    the digest order-independent and incrementally maintainable — when a
    byte changes, XOR the old contribution out and the new one in — so
    {!Mem} can keep a live fingerprint of both PM images at O(bytes
    changed) per store/flush/fence instead of rehashing megabytes at every
    crash point.

    Zero bytes contribute nothing, so a fresh all-zero image digests to
    {!zero_digest} without being scanned, and seeding from a nonzero image
    costs one pass over its nonzero bytes only.

    Two independently-mixed 64-bit lanes give a 128-bit digest; with the
    image counts a crash sweep sees (thousands, not 2^64), an accidental
    collision is beyond astronomically unlikely, which is what makes
    digest-keyed recovery memoization sound (see DESIGN.md §7b). *)

type digest = { h1 : int64; h2 : int64 }

let zero_digest = { h1 = 0L; h2 = 0L }
let equal_digest a b = Int64.equal a.h1 b.h1 && Int64.equal a.h2 b.h2

type t = { mutable a : int64; mutable b : int64 }

let create () = { a = 0L; b = 0L }
let copy t = { a = t.a; b = t.b }
let reset t = t.a <- 0L; t.b <- 0L

(* splitmix64: a full-period mixer, the standard seed expander. *)
let splitmix64 seed =
  let open Int64 in
  let z = add seed 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* The murmur3 finalizer remixes lane 1 into an independent lane 2. *)
let remix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  logxor z (shift_right_logical z 33)

(* Contribution of byte value [byte] at [off]; (0, 0) for zero bytes by
   construction, never for nonzero ones (splitmix has no fixed point at
   the offsets in use). *)
let lanes ~off ~byte =
  if byte = 0 then (0L, 0L)
  else
    let z = splitmix64 (Int64.of_int ((off * 256) lor byte)) in
    (z, remix z)

(** [update t ~off ~old_byte ~new_byte] re-fingerprints one byte change. *)
let update t ~off ~old_byte ~new_byte =
  if old_byte <> new_byte then begin
    let oa, ob = lanes ~off ~byte:old_byte in
    let na, nb = lanes ~off ~byte:new_byte in
    t.a <- Int64.logxor t.a (Int64.logxor oa na);
    t.b <- Int64.logxor t.b (Int64.logxor ob nb)
  end

(** [of_bytes img] fingerprints an image from scratch (used to seed the
    tracker from a restart image, and by tests as the ground truth the
    incremental hash must agree with). *)
let of_bytes img =
  let t = create () in
  for off = 0 to Bytes.length img - 1 do
    let byte = Bytes.get_uint8 img off in
    if byte <> 0 then begin
      let a, b = lanes ~off ~byte in
      t.a <- Int64.logxor t.a a;
      t.b <- Int64.logxor t.b b
    end
  done;
  t

let digest t = { h1 = t.a; h2 = t.b }

module Digest_key = struct
  type t = digest

  let equal = equal_digest
  let hash d = Int64.to_int (Int64.logxor d.h1 (Int64.shift_right_logical d.h2 1))
end
