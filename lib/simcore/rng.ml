(* SplitMix64.  The state is an 8-byte buffer rather than a mutable
   [int64] field: a field holds a boxed [int64], so every draw would
   allocate a fresh box, while [Bytes.get_int64_le]/[set_int64_le] read
   and write it unboxed.  The samplers below are marked [@inline], and
   the default build (the release profile, without [-opaque]) inlines
   them into callers in other modules, so a draw allocates nothing:
   [unit_float] and a lognormal [Distribution.sample] called from another
   module measured 2 minor words a draw when built with [-opaque] and 0
   without (test/simcore, "draws allocate nothing"). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let split t = of_state (bits64 t)
let copy t = Bytes.copy t

(* Non-negative 62-bit int from the top bits: safe on 64-bit OCaml ints. *)
let[@inline] positive_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

(* Rejection sampling to avoid modulo bias. *)
let rec draw_below t limit bound =
  let v = positive_int t in
  if v < limit then v mod bound else draw_below t limit bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let limit = 0x3FFF_FFFF_FFFF_FFFF / bound * bound in
  draw_below t limit bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] unit_float t =
  (* 53 random bits over [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v /. 9007199254740992.0

let float t bound = unit_float t *. bound
let bool t = Int64.logand (bits64 t) 1L = 1L
let[@inline] bernoulli t p = unit_float t < p

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let[@inline] gaussian t ~mu ~sigma =
  let u1 = 1.0 -. unit_float t in
  let u2 = unit_float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let[@inline] lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | l -> List.nth l (int t (List.length l))

let sample_without_replacement t k arr =
  let n = Array.length arr in
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  let idx = Array.init n (fun i -> i) in
  (* Partial Fisher–Yates: only the first k positions need to be drawn. *)
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.init k (fun i -> arr.(idx.(i)))
