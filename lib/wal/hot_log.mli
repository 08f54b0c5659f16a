(** Per-segment hot log with gap tracking and SCL maintenance.

    A storage node keeps one [Hot_log.t] per segment it hosts.  Records may
    arrive out of order or never (dropped writes are tolerated by design,
    §2.2); the hot log buffers out-of-chain records and advances the Segment
    Complete LSN — "the inclusive upper bound on log records continuously
    linked through the segment chain without gaps" (§2.3) — as holes fill,
    either from the writer or from peer gossip.

    {b Layout and cost.}  The gapless chain is an LSN-ascending array slice;
    every other stored record (pending above the SCL, strays below it) sits
    in one small by-LSN table.  An in-order insert appends to the slice with
    no hashing, {!drop_below} pops the slice front (cost: the records
    dropped plus the small table), and chain queries binary-search the
    slice.  {!annul_range} is recovery-only and rebuilds both. *)

type t

(** Constant constructors on purpose: [insert] runs per received record,
    and a payload would allocate a block per call.  After [Accepted], read
    the (possibly advanced) SCL via {!scl}. *)
type insert_result =
  | Accepted  (** Stored; the SCL may have advanced — see {!scl}. *)
  | Duplicate  (** Already present; ignored. *)
  | Annulled  (** LSN falls in a truncation range; rejected (§2.4). *)

val create : unit -> t

val create_anchored : Lsn.t -> t
(** A hot log whose segment chain starts after the given LSN — used when a
    new segment is hydrated from peers during repair and adopts their chain
    position. *)

val insert : t -> Log_record.t -> insert_result

val scl : t -> Lsn.t
(** Current Segment Complete LSN ({!Lsn.none} when nothing is chained). *)

val highest_received : t -> Lsn.t
(** Highest record LSN stored, chained or not ([>= scl]). *)

val contains : t -> Lsn.t -> bool

val dropped_upto : t -> Lsn.t
(** Highest LSN removed by {!drop_below} — the retention floor.  Records at
    or below it are no longer fetchable from this segment (recovery anchors
    its volume-chain walk above the maximum such floor). *)

val record_count : t -> int
val pending_count : t -> int
(** Records received but not yet linked into the gapless prefix. *)

val chained_records_above : ?limit:int -> t -> Lsn.t -> Log_record.t list
(** Records of the gapless chain with LSN strictly above the argument, in
    chain order — exactly what a gossiping peer with that SCL is missing.
    With [~limit], only the first (lowest) [limit] of them. *)

val iter_chained_above : t -> Lsn.t -> (Log_record.t -> unit) -> int
(** [iter_chained_above t lsn f] applies [f] to the records
    {!chained_records_above} would list, in chain order, without building
    the list, and returns how many there were.  [f] must not modify [t]. *)

val chain_to_list : t -> Log_record.t list
(** The full gapless chain in order. *)

val annul_range : t -> above:Lsn.t -> upto:Lsn.t -> int
(** Apply a truncation range: drop stored records with LSN in
    [(above, upto]], clamp SCL to [above], and reject future inserts in the
    range.  Returns the number of records dropped. *)

val is_annulled : t -> Lsn.t -> bool

val drop_below : t -> upto:Lsn.t -> int
(** Garbage-collect records with LSN [<= upto] (they are coalesced and/or
    backed up; Figure 2 step 7).  The SCL is unaffected — the chain below
    the drop point is remembered as complete.  Returns records dropped. *)

val bytes_stored : t -> int
(** Total [size_bytes] of stored records (hot-log footprint). *)
