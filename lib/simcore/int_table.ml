(* Open addressing with linear probing over one int array: slot [i] is the
   pair [data.(2i)] (key) and [data.(2i+1)] (value), so a probe reads one
   cache line for both.  [empty] (-1) marks a free key cell, which is why
   keys must be non-negative.  The slot count is a power of two and the
   table is at most 3/4 full, so every probe run ends at a free slot.
   Nothing is ever removed, so there are no tombstones. *)

type t = {
  mutable data : int array;
  mutable mask : int; (* slot count - 1 *)
  mutable count : int;
}

let empty = -1

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* The smallest power of two that holds [n] keys at most 3/4 full. *)
let slots_for n = pow2_at_least (n + (n / 3) + 1) 8

let create n =
  let slots = slots_for (max n 0) in
  { data = Array.make (2 * slots) empty; mask = slots - 1; count = 0 }

let length t = t.count

(* Ids are dense, so the key's low bits are its home slot. *)
let home t key = key land t.mask

let check key = if key < 0 then invalid_arg "Int_table: negative key"

(* The slot holding [key], or the free slot that ends its probe run. *)
let rec probe data mask key i =
  let k = data.(2 * i) in
  if k = key || k = empty then i else probe data mask key ((i + 1) land mask)

let find t key ~default =
  check key;
  let i = probe t.data t.mask key (home t key) in
  if t.data.(2 * i) = key then t.data.((2 * i) + 1) else default

(* Double the slots and re-place every pair. *)
let grow t =
  let old = t.data in
  let slots = 2 * (t.mask + 1) in
  let data = Array.make (2 * slots) empty in
  let mask = slots - 1 in
  for i = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * i) in
    if k <> empty then begin
      let j = probe data mask k (k land mask) in
      data.(2 * j) <- k;
      data.((2 * j) + 1) <- old.((2 * i) + 1)
    end
  done;
  t.data <- data;
  t.mask <- mask

let replace t key v =
  check key;
  let i = probe t.data t.mask key (home t key) in
  if t.data.(2 * i) = key then t.data.((2 * i) + 1) <- v
  else begin
    (* Grow before the new key would pass 3/4 full. *)
    let i =
      if 4 * (t.count + 1) > 3 * (t.mask + 1) then begin
        grow t;
        probe t.data t.mask key (home t key)
      end
      else i
    in
    t.data.(2 * i) <- key;
    t.data.((2 * i) + 1) <- v;
    t.count <- t.count + 1
  end

let fold f t acc =
  let data = t.data in
  let acc = ref acc in
  for i = 0 to t.mask do
    let k = data.(2 * i) in
    if k <> empty then acc := f k data.((2 * i) + 1) !acc
  done;
  !acc
