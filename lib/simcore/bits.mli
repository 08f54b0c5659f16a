(** Small bit-twiddling helpers shared by histogram bucketing. *)

val clz : int -> int
(** Count of leading zero bits of a positive 63-bit OCaml int, counting from
    bit 62 (the sign bit is excluded).  [clz 1 = 62].
    @raise Invalid_argument on non-positive input. *)

(** {1 Deterministic hashing}

    FNV-1a with 64-bit parameters, for anything whose hash can reach
    simulation state or output: block placement, content checksums.  Unlike
    [Hashtbl.hash], the result is a function of the bytes fed in — never of
    value representation, tree shape, or stdlib version — so it is stable
    across runs, platforms, and refactors (and the [determinism] lint rule
    bans [Hashtbl.hash] in sim code accordingly).  All results are positive
    (62-bit), safe for [mod]. *)

val fnv1a_string : string -> int
(** Hash one string from the standard seed. *)

val fnv1a_seed : int
(** Starting state for incremental hashing with the [fnv1a_add_*]
    functions. *)

val fnv1a_add_string : int -> string -> int
(** Fold a string (plus a terminator, so concatenation boundaries are
    significant) into an incremental hash. *)

val fnv1a_add_int : int -> int -> int
(** Fold an int (as 8 little-endian bytes) into an incremental hash. *)

(** {1 Checksum word mix}

    A word-at-a-time fold for checksum terms: four bytes per step, one
    multiply each, then {!mix_finish}.  It also hashes three private
    tables: the slot of a key in [Block_store]'s key table, the bucket of
    a block id in [Block_store]'s block table ({!mix_finish} alone, which
    spreads a segment's stripe of block ids over every bucket), and the
    bucket of a key in [Buffer_cache]'s per-block key tables.  Nothing
    observes any of these tables' order: [scripts/parity.sh] stayed
    byte-identical when each replaced [Hashtbl]'s.  Changing any single
    word of the input always changes the result (every step is a
    bijection), but the values are not FNV-1a's, so nothing that places
    simulated data (block placement) may use it.  Results use all 63 bits
    and may be negative. *)

val mix_seed : int
(** Starting state for the [mix_add_*] functions. *)

val mix_add_string : int -> string -> int
(** Fold a string's length, then its bytes four at a time (little-endian,
    the last word zero-padded). *)

val mix_add_int : int -> int -> int
(** Fold a whole int in one step. *)

val mix_finish : int -> int
(** Final avalanche, a bijection: every input bit reaches every output bit.
    Apply it once per term; without it, changes to two terms of a sum can
    cancel. *)
