(** Zipfian key-chooser, following the YCSB implementation (Gray et al.'s
    rejection-free formula). Item 0 is the most popular. *)

type t

(** [create items], with YCSB's default skew [theta = 0.99]. *)
val create : int -> t

val next : t -> Rng.t -> int

(** "Latest" distribution for workload D: zipfian over recency — with [n]
    inserted items, returns an index near [n-1] most of the time. *)
val latest : t -> Rng.t -> n:int -> int
