(** Transaction status table.

    Owned by the writer instance (locking, transaction management and
    constraints all resolve at the database tier, §2.2); a reduced copy is
    maintained by each replica from shipped commit notifications (§3.4).
    Storage nodes never consult it — they accept every write.

    {b Representation.}  One int per transaction id, in an array indexed
    by the id: ids are dense from 1, whether the allocator issued them,
    recovery registered them from the log, or a replica learned them from
    the stream.  A row is absent, active, aborted, or the SCN itself, so a
    lookup hashes nothing and boxes nothing ({!scn}).  The table costs one
    word per id ever issued, up to the highest one seen, and grows by
    doubling. *)

open Wal

type status =
  | Active
  | Committed of Lsn.t  (** The commit record's LSN — the SCN. *)
  | Aborted

type t

val create : unit -> t

val begin_txn : t -> Txn_id.t
(** Allocate and register a new active transaction. *)

val register : t -> Txn_id.t -> unit
(** Register an externally allocated id as active (replica promotion /
    recovery bookkeeping). *)

val note_floor : t -> Txn_id.t -> unit
(** Never allocate ids at or below this one (recovery: ids seen in the
    recovered log must not be reused). *)

val status : t -> Txn_id.t -> status option

val mark_committed : t -> Txn_id.t -> scn:Lsn.t -> unit
(** @raise Invalid_argument if [scn] is {!Lsn.none}: an SCN is a commit
    record's LSN. *)

val mark_aborted : t -> Txn_id.t -> unit

val forget : t -> Txn_id.t -> unit
(** Drop a transaction that wrote nothing (a read-only commit): no
    version names it, so no reader asks. *)

val scn : t -> Txn_id.t -> Lsn.t
(** The transaction's SCN, or {!Lsn.none} unless it committed.  Allocates
    nothing: the read path's visibility check ({!Read_view}). *)

val commit_scn : t -> Txn_id.t -> Lsn.t option
(** [Some scn] iff the transaction committed. *)

val committed_upto : t -> Lsn.t -> (Txn_id.t * Lsn.t) list
(** Every committed transaction with SCN at or below the bound, sorted by
    SCN. *)
