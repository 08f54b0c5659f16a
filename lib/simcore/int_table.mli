(** A table from non-negative ints to ints, specialised for dense ids.

    Open addressing with linear probing over one array of interleaved
    key/value pairs: a power-of-two slot count, a key's home slot is its low
    bits, and the table doubles before it passes 3/4 full.  A row costs two
    words of that array and no allocation of its own, and a lookup hashes
    nothing and compares ints only.  Rows are never removed.

    Iteration ({!fold}) follows the slots.  That order is a function of the
    sequence of {!replace} calls only, never of the runtime. *)

type t

val create : int -> t
(** [create n]: an empty table sized to hold [n] keys without growing. *)

val length : t -> int
(** The number of keys. *)

val replace : t -> int -> int -> unit
(** Bind the key to the value, replacing any earlier binding.
    @raise Invalid_argument on a negative key. *)

val find : t -> int -> default:int -> int
(** The key's value, or [default] when it has none.  Allocates nothing.
    @raise Invalid_argument on a negative key. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every binding, in slot order. *)
