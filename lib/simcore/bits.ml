let highest_bit v =
  if v <= 0 then invalid_arg "Bits.highest_bit: non-positive";
  let rec loop v n = if v = 1 then n else loop (v lsr 1) (n + 1) in
  loop v 0

let clz v = 62 - highest_bit v

(* FNV-1a, 64-bit parameters on native ints (multiplication wraps, which is
   exactly what FNV wants).  Results are masked positive so callers can
   [mod] them straight into a bucket count. *)

let fnv_prime = 0x100000001b3
(* The canonical 64-bit offset basis exceeds OCaml's 63-bit ints; wrap via
   Int64 and mask positive. *)
let fnv1a_seed = Int64.to_int 0xcbf29ce484222325L land 0x3FFF_FFFF_FFFF_FFFF

let mask_positive h = h land 0x3FFF_FFFF_FFFF_FFFF

let fnv1a_add_char h c = (h lxor Char.code c) * fnv_prime

let fnv1a_add_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv1a_add_char !h s.[i]
  done;
  (* Terminator so ("ab","c") and ("a","bc") fold differently. *)
  mask_positive (fnv1a_add_char !h '\x00')

let fnv1a_add_int h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := fnv1a_add_char !h (Char.chr ((v lsr (shift * 8)) land 0xff))
  done;
  mask_positive !h

let fnv1a_string s = fnv1a_add_string fnv1a_seed s
