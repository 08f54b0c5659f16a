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

(* Word mix for checksum terms.  Each step is [(h lxor w) * fnv_prime]:
   xor with a word and multiplication by an odd constant are both
   bijections on 63-bit ints, so changing any one word of the input always
   changes the result.  Nothing is masked off, for the same reason.

   The steps alone barely spread a change: flipping the low bit of a word
   moves the state by about +-p^k, so two such changes summed over a
   block's keys cancel half the time.  [mix_finish] (xor-shifts and odd
   multipliers, also bijective) scatters the result over all 63 bits. *)

let mix_seed = fnv1a_seed

let mix_add_int h w = (h lxor w) * fnv_prime

let mix_add_string h s =
  let n = String.length s in
  (* The length goes first, so zero-padding the last word is unambiguous
     and concatenation boundaries are significant. *)
  let h = ref (mix_add_int h n) in
  let words = n land lnot 3 in
  let i = ref 0 in
  while !i < words do
    h := mix_add_int !h (String.get_uint16_le s !i lor (String.get_uint16_le s (!i + 2) lsl 16));
    i := !i + 4
  done;
  if words < n then begin
    let w = ref 0 in
    for j = n - 1 downto words do
      w := (!w lsl 8) lor Char.code s.[j]
    done;
    h := mix_add_int !h !w
  end;
  !h

let mix_finish h =
  let h = (h lxor (h lsr 32)) * 0x5851f42d4c957f2d in
  let h = (h lxor (h lsr 29)) * 0x14057b7ef767814f in
  h lxor (h lsr 32)
