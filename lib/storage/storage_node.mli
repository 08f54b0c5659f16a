(** The Aurora storage node actor (Figure 2).

    Foreground: receive redo, append it durably (disk-modelled), acknowledge
    with the new SCL.  Background, each on its own cadence: peer-to-peer
    gossip to fill hot-log holes, coalescing redo into block images, backup
    of the log/pages to the simulated S3, garbage collection of backed-up
    and superseded state, and checksum scrubbing with peer repair.

    Storage nodes have no vote: any write at a current epoch must be
    accepted (§2.2).  All refusal paths are epoch fencing or data-absence
    conditions, never protocol-level coordination. *)

val disk_service : Simcore.Distribution.t
(** A node's SSD-like service time per disk write, lognormal around
    ~80us; each byte adds 2ns on top. *)

type config = {
  gossip_interval : Simcore.Time_ns.t;
  coalesce_interval : Simcore.Time_ns.t;
  backup_interval : Simcore.Time_ns.t;
  gc_interval : Simcore.Time_ns.t;
  scrub_interval : Simcore.Time_ns.t;
}

val default_config : config
(** 100ms gossip, 50ms coalesce, 1s backup, 500ms GC, 10s scrub. *)

type metrics = {
  mutable write_batches : int;
  mutable records_stored : int;
  mutable duplicates : int;
  mutable rejects : int;
  mutable reads_ok : int;
  mutable reads_refused : int;
  mutable gossip_pulls_served : int;
  mutable gossip_records_sent : int;
  mutable gossip_records_filled : int;
  mutable backups_taken : int;
  mutable hot_log_records_gced : int;
  mutable versions_gced : int;
  mutable scrub_corruptions_found : int;
  mutable hydrations_served : int;
}

type t

val create :
  sim:Simcore.Sim.t ->
  rng:Simcore.Rng.t ->
  net:Protocol.t Simnet.Net.t ->
  addr:Simnet.Addr.t ->
  s3:S3.t ->
  config:config ->
  ?obs:Obs.Ctx.t ->
  ?obs_labels:Obs.Registry.labels ->
  ?rings:Recorder.Rings.t ->
  unit ->
  t
(** [obs] registers the [storage_*] counters labelled with this node's
    address; [obs_labels] adds extra dimensions (the harness tags the
    node's AZ).  [rings] is the cluster's flight recorder; without it the
    node records no events. *)

val addr : t -> Simnet.Addr.t
val add_segment : t -> Segment.t -> unit
val segment : t -> Pg_id.t -> Segment.t option
val segments : t -> Segment.t list
val metrics : t -> metrics
val disk : t -> Disk.t

val start : t -> unit
(** Register on the network and launch background activities. *)

val crash : t -> unit
(** Stop processing; durable state (hot log, blocks) is retained, matching
    a storage-node process crash with intact disks. *)

val restart : t -> unit

val destroy : t -> unit
(** Crash and discard all segment state — a permanent storage loss, the
    trigger for membership-change repair (§4.1). *)

val is_alive : t -> bool

val request_hydration : t -> pg:Pg_id.t -> from:Simnet.Addr.t -> unit
(** Ask a peer for everything needed to (re)build our segment of [pg]:
    chain records above our SCL plus block snapshots for full segments. *)
