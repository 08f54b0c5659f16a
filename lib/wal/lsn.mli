(** Log Sequence Numbers.

    The LSN space is common across the whole database volume, monotonically
    increasing, and allocated solely by the (single) writer instance — the
    paper's key invariant ("the log only ever marches forward") that lets
    Aurora replace consensus with bookkeeping.  LSNs start at 1; {!none} (0)
    is the chain terminator used by the first record of each back-chain. *)

type t = private int

val none : t
(** Chain terminator / "no LSN yet".  Compares below every real LSN. *)

val first : t
(** The first allocatable LSN (1). *)

val of_int : int -> t
(** @raise Invalid_argument on negatives. *)

val to_int : t -> int
val next : t -> t
val add : t -> int -> t

val diff : t -> t -> int
(** [diff a b] is how far [a] is ahead of [b] (negative if behind) — the
    lag/backlog metric.  The only sanctioned LSN subtraction; the
    [lsn-arith] lint rule bans raw arithmetic on LSNs elsewhere. *)


val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val max : t -> t -> t
val min : t -> t -> t
val is_none : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** A transaction outcome — the LSN of its commit or abort record and
    which of the two it was — packed into one immediate int, so a table of
    outcomes holds no boxed pairs. *)
module Outcome : sig
  type lsn := t
  type t = private int

  val make : lsn -> aborted:bool -> t
  val lsn : t -> lsn
  val aborted : t -> bool

  val of_int : int -> t
  (** The inverse of the coercion [(o :> int)], for tables that store
      outcomes as ints.  @raise Invalid_argument on a negative int, which
      no outcome is. *)
end

(** Monotonic allocator owned by the writer instance.  Allocation is pure
    local state — this is precisely what the paper exploits. *)
module Allocator : sig
  type lsn := t
  type t

  val create : unit -> t

  val reset_above : t -> lsn -> unit
  (** Restart allocation strictly above a point — used after crash recovery
      so new records land above the truncation range (§2.4).
      @raise Invalid_argument if the point is below the current tail
      (the LSN space only ever marches forward). *)

  val last : t -> lsn
  (** Highest LSN allocated so far ({!none} initially). *)

  val take : t -> lsn
  (** Allocate the next LSN. *)
end
