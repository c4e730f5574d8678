(** Zipfian key-chooser, following the YCSB implementation (Gray et al.'s
    rejection-free formula as used in [ZipfianGenerator.java]). Item 0 is
    the most popular. *)

type t = {
  items : int;
  zetan : float;
  zeta2 : float;
  alpha : float;
  eta : float;
  half_pow_theta : float;  (** [0.5 ** theta] *)
}

let zeta n theta =
  let s = ref 0.0 in
  for i = 1 to n do
    s := !s +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !s

let create ?(theta = 0.99) items =
  if items <= 0 then invalid_arg "Zipfian.create: items must be positive";
  let zetan = zeta items theta in
  let zeta2 = zeta 2 theta in
  {
    items;
    zetan;
    zeta2;
    alpha = 1.0 /. (1.0 -. theta);
    eta =
      (1.0 -. Float.pow (2.0 /. float_of_int items) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan));
    half_pow_theta = Float.pow 0.5 theta;
  }

let next t rng =
  let u = Rng.float rng in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. t.half_pow_theta then 1
  else
    let v =
      float_of_int t.items
      *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
    in
    min (t.items - 1) (int_of_float v)

(** "Latest" distribution for workload D: zipfian over recency. With [n]
    inserted items, returns an index near [n-1] most of the time. *)
let latest t rng ~n =
  if n <= 0 then 0
  else
    let off = next t rng in
    max 0 (n - 1 - (off mod n))
