type t =
  | Constant of Time_ns.t
  | Uniform of Time_ns.t * Time_ns.t
  | Exponential of float
  | Lognormal of float * float (* mu, sigma in log-space of nanoseconds *)
  | Shifted of Time_ns.t * t
  | Mixture of (float * t) array * float (* entries, total weight *)
  | Scaled of float * t

let constant d = Constant d

let uniform ~lo ~hi =
  if hi < lo then invalid_arg "Distribution.uniform: hi < lo";
  Uniform (lo, hi)

let exponential ~mean =
  if mean <= 0 then invalid_arg "Distribution.exponential: mean <= 0";
  Exponential (float_of_int mean)

let lognormal ~median ~sigma =
  if median <= 0 then invalid_arg "Distribution.lognormal: median <= 0";
  Lognormal (log (float_of_int median), sigma)

let shifted base d = Shifted (base, d)

let mixture entries =
  if entries = [] then invalid_arg "Distribution.mixture: empty";
  List.iter
    (fun (w, _) ->
      if w <= 0. then invalid_arg "Distribution.mixture: non-positive weight")
    entries;
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. entries in
  Mixture (Array.of_list entries, total)

let scaled factor d =
  if factor < 0. then invalid_arg "Distribution.scaled: negative factor";
  Scaled (factor, d)

(* Top-level (not a local [rec] closure capturing [x]): mixture sampling
   sits on the latency-draw hot path. *)
let rec mixture_pick entries x i acc =
  let w, d = entries.(i) in
  if i = Array.length entries - 1 || x < acc +. w then d
  else mixture_pick entries x (i + 1) (acc +. w)

let rec sample t rng =
  let v =
    match t with
    | Constant d -> d
    | Uniform (lo, hi) -> Rng.int_in rng lo hi
    | Exponential mean -> int_of_float (Rng.exponential rng ~mean)
    | Lognormal (mu, sigma) -> int_of_float (Rng.lognormal rng ~mu ~sigma)
    | Shifted (base, d) -> Time_ns.add base (sample d rng)
    | Mixture (entries, total) ->
      sample (mixture_pick entries (Rng.float rng total) 0 0.) rng
    | Scaled (f, d) -> int_of_float (f *. float_of_int (sample d rng))
  in
  if v < 0 then 0 else v
