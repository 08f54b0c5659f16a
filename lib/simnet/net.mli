(** Simulated datagram network.

    Messages are delivered asynchronously after a latency draw from a
    per-link distribution, may be dropped (per-link or globally), and are
    never reordered artificially beyond what independent latency draws
    produce — matching the "asynchronous flows" the paper's protocols are
    designed around (§2.2): senders never block, and any write may be lost
    for any reason.

    The network is polymorphic in the message type; each layer of the
    system instantiates it with its own protocol variant.  Faults:

    - node down/up: messages to or from a down node are silently dropped;
    - partitions: arbitrary blocked address pairs;
    - slow nodes: multiplicative latency factor per node (e.g. a storage
      node hit by background work, used by the hedged-read experiment).

    The net keeps one record per address and one per link.  An address's
    record holds its handler, whether it is down and its slowdown factor.
    Each directed link a message or a setter has touched has a record
    holding its {!link_stat} counters, its sever cause ({!block} or
    {!partition}), its drop probability, its latency override, both
    endpoints' records and its resolved latency distribution.  So {!send}
    costs one link lookup, and delivery none: the in-flight message
    carries the link record.  Setters change the records in place, so a
    change reaches the next message on every link, including links that
    have already carried messages. *)

type 'msg t

(** Delivery envelope, built once per delivered message. *)
type 'msg envelope = {
  src : Addr.t;
  dst : Addr.t;
  sent_at : Simcore.Time_ns.t;
  bytes : int;
  msg : 'msg;
}

type stats = {
  sent : int;
  delivered : int;
  dropped : int;  (** Sum of the four cause-split counters below. *)
  dropped_down : int;
      (** Endpoint down at send or delivery (an unregistered destination
          counts as down). *)
  dropped_blocked : int;  (** Link severed by a targeted {!block}. *)
  dropped_partition : int;
      (** Link severed by a set-level {!partition} — split from
          [dropped_blocked] so fault scenarios can attribute loss to the
          partition nemesis rather than pinpoint blocks. *)
  dropped_random : int;  (** Stochastic loss (global or per-link). *)
  bytes_sent : int;
  bytes_delivered : int;
}

val create :
  sim:Simcore.Sim.t ->
  rng:Simcore.Rng.t ->
  default_latency:Simcore.Distribution.t ->
  ?obs:Obs.Ctx.t ->
  unit ->
  'msg t
(** [obs] registers the [net_*] counters (sent/delivered/dropped with
    cause split/bytes) in the given registry. *)

val sim : 'msg t -> Simcore.Sim.t

val register : 'msg t -> Addr.t -> ('msg envelope -> unit) -> unit
(** Install the delivery handler for an address (replacing any previous
    one — a restarted process re-registers).  The handler in place when a
    message arrives receives it, including a message already in flight
    when [register] was called. *)

val send : 'msg t -> src:Addr.t -> dst:Addr.t -> ?bytes:int -> 'msg -> unit
(** Fire-and-forget.  [bytes] (default 64) feeds traffic accounting — the
    paper's network-amplification comparisons count bytes, not messages. *)

val set_link_latency :
  'msg t -> src:Addr.t -> dst:Addr.t -> Simcore.Distribution.t -> unit
(** Override the latency distribution of one directed link. *)

val set_latency_fn :
  'msg t -> (Addr.t -> Addr.t -> Simcore.Distribution.t option) -> unit
(** Bulk link model (e.g. by AZ distance).  A per-link override
    ({!set_link_latency}) wins over it, and [None] falls back to the
    default.  It is consulted once per link after each call, when the link
    next samples a latency, and the answer is kept: for a given address
    pair it must keep giving the same answer while it is installed. *)

val set_drop_probability : 'msg t -> float -> unit
(** Global iid drop probability applied to every message. *)

val set_link_drop : 'msg t -> src:Addr.t -> dst:Addr.t -> float -> unit

val set_node_slowdown : 'msg t -> Addr.t -> float -> unit
(** Latency multiplier for all traffic to/from the node (1.0 = normal).
    Source and destination factors multiply; a change applies to every
    message sent after it. *)

val set_down : 'msg t -> Addr.t -> unit
val set_up : 'msg t -> Addr.t -> unit

val is_down : 'msg t -> Addr.t -> bool
(** [false] for an address the net has never seen. *)

val block : 'msg t -> Addr.t -> Addr.t -> unit
(** Sever both directions between two addresses.  Drops on the link count
    as [dropped_blocked]. *)

val unblock : 'msg t -> Addr.t -> Addr.t -> unit

val partition : 'msg t -> Addr.Set.t -> Addr.Set.t -> unit
(** Block every pair across the two sets.  Drops on these links count as
    [dropped_partition].  A pair both [block]ed and [partition]ed carries
    the cause applied last. *)

val heal_partition : 'msg t -> Addr.Set.t -> Addr.Set.t -> unit

val stats : 'msg t -> stats

val reset_stats : 'msg t -> unit
(** Zero the global and per-link counters.  Fault state is kept: down
    nodes, blocks, partitions, slowdowns, and per-link drop and latency
    settings. *)

(** Why a particular message was dropped — the per-message analogue of the
    cause-split counters in {!stats}. *)
type drop_cause =
  | Down  (** endpoint down (or destination unregistered) *)
  | Blocked  (** link severed by a targeted {!block} *)
  | Partitioned  (** link severed by a set-level {!partition} *)
  | Random  (** stochastic loss *)

(** Lifecycle points a message passes through.  Every send yields [Sent],
    then exactly one of [Delivered] or [Dropped] (at send time or at the
    scheduled delivery time). *)
type phase = Sent | Delivered | Dropped of drop_cause

val set_recorder :
  'msg t -> (phase -> src:Addr.t -> dst:Addr.t -> 'msg -> unit) option -> unit
(** Install (or clear) a flight-recorder hook, called synchronously on
    every message phase.  The hook must not send, schedule, or draw
    randomness — it observes; the harness uses it to feed
    [Recorder.Rings] without the network depending on the recorder. *)

(** Per-link delivery counters, keyed by directed (src, dst) node-id
    pair. *)
type link_stat = {
  sent_on : int;
  delivered_on : int;
  drop_down : int;
  drop_blocked : int;
  drop_partition : int;
  drop_random : int;
}

val link_stats : 'msg t -> ((int * int) * link_stat) list
(** Every link with a non-zero counter since the last {!reset_stats}
    (a link only a setter touched is not listed), sorted by (src, dst) —
    deterministic, feeds the recorder artifact's [net] section. *)
