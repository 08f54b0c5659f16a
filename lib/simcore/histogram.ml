(* Buckets: values < 2^sub_bits are recorded exactly (one bucket per value).
   Above that, each octave [2^k, 2^(k+1)) splits into 2^sub_bits linear
   sub-buckets, bounding relative error by 2^-sub_bits. *)

let sub_bits = 4
let sub_count = 1 lsl sub_bits (* 16 *)
let octaves = 62 - sub_bits

type t = {
  buckets : int array;
  mutable n : int;
  mutable vmin : int;
  mutable vmax : int;
  mutable sum : float;
  mutable sumsq : float;
}

let n_buckets = sub_count * (octaves + 1)

let create () =
  {
    buckets = Array.make n_buckets 0;
    n = 0;
    vmin = max_int;
    vmax = 0;
    sum = 0.;
    sumsq = 0.;
  }

(* Index of the bucket holding [v]. *)
let index_of v =
  if v < sub_count then v
  else begin
    (* Highest set bit position. *)
    let k = 62 - Bits.clz v in
    let sub = (v lsr (k - sub_bits)) land (sub_count - 1) in
    ((k - sub_bits + 1) * sub_count) + sub
  end

(* Upper edge (inclusive representative) of bucket [i]. *)
let value_of i =
  if i < sub_count then i
  else begin
    let oct = (i / sub_count) - 1 in
    let sub = i mod sub_count in
    let base = 1 lsl (oct + sub_bits) in
    let width = 1 lsl oct in
    base + ((sub + 1) * width) - 1
  end

let record t v =
  let v = if v < 0 then 0 else v in
  let i = index_of v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.n <- t.n + 1;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  let fv = float_of_int v in
  t.sum <- t.sum +. fv;
  t.sumsq <- t.sumsq +. (fv *. fv)

let record_span t start stop = record t (Time_ns.diff stop start)

let merge a b =
  let t = create () in
  Array.iteri (fun i c -> t.buckets.(i) <- c) a.buckets;
  Array.iteri (fun i c -> t.buckets.(i) <- t.buckets.(i) + c) b.buckets;
  t.n <- a.n + b.n;
  t.vmin <- min a.vmin b.vmin;
  t.vmax <- max a.vmax b.vmax;
  t.sum <- a.sum +. b.sum;
  t.sumsq <- a.sumsq +. b.sumsq;
  t

let count t = t.n
let min_value t = if t.n = 0 then 0 else t.vmin
let max_value t = t.vmax
let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n
let total t = t.sum

let stddev t =
  if t.n = 0 then 0.
  else begin
    let m = mean t in
    let var = (t.sumsq /. float_of_int t.n) -. (m *. m) in
    if var < 0. then 0. else sqrt var
  end

let percentile t p =
  if t.n = 0 then 0
  else begin
    let p = Float.max 0. (Float.min 100. p) in
    let target = int_of_float (ceil (p /. 100. *. float_of_int t.n)) in
    let target = if target < 1 then 1 else target in
    let rec scan i acc =
      if i >= n_buckets then t.vmax
      else begin
        let acc = acc + t.buckets.(i) in
        if acc >= target then min (value_of i) t.vmax else scan (i + 1) acc
      end
    in
    scan 0 0
  end

let median t = percentile t 50.

type snapshot = { of_ : t; counts : int array; mutable sn : int }

let snapshot t = { of_ = t; counts = Array.copy t.buckets; sn = t.n }

let refresh s =
  Array.blit s.of_.buckets 0 s.counts 0 n_buckets;
  s.sn <- s.of_.n

let check_owner t s =
  if s.of_ != t then
    invalid_arg "Histogram.percentile_since: snapshot from another histogram"

let count_since t s =
  check_owner t s;
  t.n - s.sn

let percentile_since t s p =
  check_owner t s;
  let n = t.n - s.sn in
  if n <= 0 then 0
  else begin
    let p = Float.max 0. (Float.min 100. p) in
    let target = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    let target = if target < 1 then 1 else target in
    let rec scan i acc =
      if i >= n_buckets then t.vmax
      else begin
        let acc = acc + (t.buckets.(i) - s.counts.(i)) in
        if acc >= target then min (value_of i) t.vmax else scan (i + 1) acc
      end
    in
    scan 0 0
  end

