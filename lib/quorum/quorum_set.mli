(** Boolean quorum-set expressions (§4.1, §4.2).

    A quorum requirement is a monotone Boolean formula over members:
    k-of-n atoms combined with AND / OR.  Plain quorums are single atoms
    ("4 of ABCDEF"); membership transitions AND write atoms over old and new
    member sets; unlike-member designs (full/tail segments) mix both:

    - transition write set: [4/6 ABCDEF AND 4/6 ABCDEG]
    - transition read set:  [3/6 ABCDEF OR 3/6 ABCDEG]
    - tiered write set:     [4/6 of all OR 3/3 of full segments]
    - tiered read set:      [3/6 of all AND 1/3 of full segments]

    Because formulas are monotone, safety properties (read/write overlap,
    write/write intersection) are decidable by enumerating member subsets;
    member counts here are small (≤ ~12), so exhaustive checking is cheap
    and is exactly the "using Boolean logic, we can prove each transition is
    correct, safe, and reversible" claim of the paper. *)

type t =
  | Atom of { threshold : int; members : Member_id.Set.t }
      (** Satisfied by any [threshold] members of [members]. *)
  | All of t list  (** AND; [All \[\]] is trivially satisfied. *)
  | Any of t list  (** OR; [Any \[\]] is never satisfied. *)

val k_of : int -> Member_id.t list -> t
(** [k_of k members] — the [k]-of-n atom.
    @raise Invalid_argument if [k < 0], [k] exceeds the member count, or
    [members] has duplicates. *)

val equal : t -> t -> bool
(** Structural formula equality ([Member_id.Set.equal] on atoms; same
    shape and operand order — not logical equivalence, which is what
    {!overlaps}-style enumeration is for). *)

val all : t list -> t
val any : t list -> t

val members : t -> Member_id.Set.t
(** Every member mentioned anywhere in the formula. *)

val satisfied_by : t -> (Member_id.t -> bool) -> bool
(** [satisfied_by t pass] — do the members passing [pass] meet the
    requirement?  An atom holds when at least [threshold] of its members
    pass, [All] when every branch holds, [Any] when one does.  This is the
    one evaluator: a caller that already holds per-member state (the
    writer's SCL table, recovery's reply table) tests membership there
    instead of building a set.  An atom stops calling [pass] once its
    threshold is met, so [pass] must be a pure test.  Monotone: more
    passing members never turn [true] into [false]. *)

val satisfied : t -> Member_id.Set.t -> bool
(** [satisfied t responsive] is
    [satisfied_by t (fun m -> Member_id.Set.mem m responsive)]. *)

val min_cardinality : t -> int
(** Size of the smallest satisfying set (number of I/Os needed in the best
    case). *)

val overlaps : read:t -> write:t -> bool
(** Every read-satisfying subset intersects every write-satisfying subset —
    rule 1 of §2.1.  Checked exhaustively over subsets of
    [members read ∪ members write]. *)

val self_overlapping : t -> bool
(** Every pair of satisfying subsets intersects — rule 2 of §2.1 applied to
    the write quorum ("the write set must overlap with prior write sets"). *)

val pp : Format.formatter -> t -> unit

(** A paired read/write rule with its safety obligations. *)
module Rule : sig
  type quorum := t

  type t = { read : quorum; write : quorum }

  val make : read:quorum -> write:quorum -> (t, string) result
  (** Validates both §2.1 rules; [Error] describes the violated one. *)

  val make_exn : read:quorum -> write:quorum -> t
  val members : t -> Member_id.Set.t
  val pp : Format.formatter -> t -> unit
end
