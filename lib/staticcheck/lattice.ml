(** The per-abstract-location persistency lattice (see the interface for
    the ordering rationale). A total chain, so [join] is [max] by rank. *)

type t = Bot | Persisted | Flush_pending | Dirty | Top

let rank = function
  | Bot -> 0
  | Persisted -> 1
  | Flush_pending -> 2
  | Dirty -> 3
  | Top -> 4

let leq a b = rank a <= rank b
let join a b = if rank a >= rank b then a else b
let equal a b = rank a = rank b
let undurable = function Flush_pending | Dirty | Top -> true | Bot | Persisted -> false

let to_string = function
  | Bot -> "bot"
  | Persisted -> "persisted"
  | Flush_pending -> "flush-pending"
  | Dirty -> "dirty"
  | Top -> "top"

let pp ppf t = Format.pp_print_string ppf (to_string t)
