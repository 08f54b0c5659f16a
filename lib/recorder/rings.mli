(** Per-node event rings — the flight recorder proper.

    One value per recording cluster: the cluster makes it when asked to
    record and hands it to the writer, every storage node and every
    replica, so two clusters in one process never share a ring.  Recording
    draws no randomness and schedules nothing, so a recorded run is
    byte-identical to a bare one.  A component built without rings records
    nothing, and each of its hook points costs one branch.

    Timestamps are [Simcore.Time_ns.t] values, i.e. plain nanosecond
    ints, stored verbatim. *)

val min_depth : int
(** Smallest accepted ring capacity (16). *)

val max_depth : int
(** Largest accepted ring capacity (65536) — bounds swarm memory even if
    every scenario asks for the ceiling. *)

val default_depth : int
(** Capacity used when no [recorder_depth] directive is given (512). *)

type t

val create : ?depth:int -> unit -> t
(** Empty rings, each holding the newest [depth] events (default
    {!default_depth}).  Raises [Invalid_argument] outside
    [[min_depth, max_depth]]. *)

val register : t -> node:int -> role:Event.role -> unit
(** Create an empty ring for [node] (idempotent — a restart does not wipe
    the node's history).  Unregistered nodes that record anyway are
    auto-registered with role {!Event.Unknown}. *)

val note : t -> node:int -> at:int -> Event.t -> unit
(** Append an event at sim time [at] (nanoseconds); once a ring is full
    the oldest event is evicted. *)

type node_ring = {
  node : int;
  role : Event.role;
  depth : int;
  evicted : int;  (** events lost to ring wrap-around *)
  events : (int * Event.t) list;  (** (sim ns, event), oldest first *)
}

type snapshot = { nodes : node_ring list (* sorted by node id *) }

val snapshot : t -> snapshot
(** Immutable copy of every ring, nodes sorted by id — the input to
    [Correlate] and [Artifact]. *)
