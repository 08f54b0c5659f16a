(** MVCC read views (§3.1, §3.4).

    A read view "establishes a logical point in time before which a SQL
    statement must see all changes and after which it may not see any
    changes other than its own".  On the writer the anchor is the current
    VDL; on a replica it is the replica's view of the writer's VDL plus
    shipped commit history — the visibility rule is identical, which is
    what lets one module serve both:

    a version is visible iff it belongs to the view's own transaction
    (own writes are exempt from the anchor), or its LSN is at or below the
    anchor and its writing transaction committed with an SCN at or below
    the anchor. *)

open Wal

type t = {
  as_of : Lsn.t;  (** Anchor LSN (a VDL point). *)
  owner : Txn_id.t option;  (** A transaction sees its own writes. *)
}

val make : as_of:Lsn.t -> ?owner:Txn_id.t -> unit -> t

val visible : t -> Txn_table.t -> Storage.Block_store.version -> bool
(** The rule above, with commit SCNs read from the table
    ({!Txn_table.scn}): a check allocates nothing. *)

val visible_suffix :
  t -> Txn_table.t -> Storage.Block_store.version list -> Storage.Block_store.version list
(** The newest-first chain (the storage tier's out-of-place versions,
    §3.4) from its newest visible version on, or [[]] if none is visible.
    A suffix of the chain itself, so nothing is allocated.  A visible
    delete heads the result ([value = None]); callers map that to
    absence. *)

val value : t -> Txn_table.t -> Storage.Block_store.version list -> string option
(** The head of {!visible_suffix} collapsed to the user-level result. *)
