(** One emit per protocol moment.

    Every component that records holds a sink: its node id, the sim clock,
    the cluster's {!Rings} when the cluster records, and — for a writer —
    its commit-path ledger ([Obs.Commit_path]).  Each writer protocol
    moment is one call here, with plain ints: the call updates the ledger,
    and when the cluster records it also notes the matching {!Event.t} on
    the node's ring.  A sink without rings builds no event, so a bare
    cluster pays one branch per moment and allocates nothing.

    {!replay} feeds a ring's events back through the same ledger calls:
    that is how [explain] rebuilds a record's stage breakdown from an
    artifact alone, with the live ledger's code. *)

type t

val create :
  sim:Simcore.Sim.t ->
  node:int ->
  ?rings:Rings.t ->
  ?ledger:Obs.Commit_path.t ->
  unit ->
  t
(** A sink noting on [node]'s ring of [rings] (none: records nothing) and
    marking [ledger] (none: a storage node's sink). *)

val recording : t -> bool

val note : t -> Event.t -> unit
(** Note an event no ledger reads (lifecycle, membership, storage).
    Callers gate on {!recording}, so a bare cluster builds no event. *)

(** {2 Writer moments} *)

val lsn_allocated : t -> pg:int -> lsn:int -> unit
val boxcar_flushed : t -> pg:int -> lsn_lo:int -> lsn_hi:int -> unit

val storage_acked : t -> pg:int -> scl:int -> unit
(** Ledger only: the network hook already noted the ack as a
    [Receive write_ack] on this ring at this instant, and {!replay} reads
    that. *)

val pgcl_advanced : t -> pg:int -> pgcl:int -> unit
val vcl_advanced : t -> vcl:int -> durable:Simcore.Histogram.t -> unit
val vdl_advanced : t -> vdl:int -> unit

val commit_submitted : t -> txn:int -> scn:int -> unit
(** Ring only: the commit record's ledger entry is its allocation. *)

val commit_acked : t -> txn:int -> scn:int -> unit

val crashed : t -> unit
(** The node crashed: the ledger forgets every record. *)

(** {2 Offline} *)

val replay : Obs.Commit_path.t -> (int * Event.t) list -> unit
(** Feed one node's recorded events, oldest first, through the ledger
    calls the live moments made.  Write acks count only while the writer
    is open (after [Started], before [Crashed], [Fenced] or
    [Recovery_start]), as the live writer ignores them otherwise.  On a
    ring that did not wrap this rebuilds the live ledger's timelines; on
    one that did, every record whose allocation is still in the ring.
    Events naming a negative or implausible (>= 65536) group are skipped,
    so a hand-edited artifact cannot make the ledger misbehave. *)
