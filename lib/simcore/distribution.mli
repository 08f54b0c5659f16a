(** Latency / service-time distributions.

    A distribution is a recipe for drawing {!Time_ns.t} durations from an
    {!Rng.t}.  The simulated network, disks, and client think times are all
    parameterized by values of this type, so experiments can swap a constant
    link for a lognormal one, or splice a slow-tail mixture in, without
    touching component code. *)

type t

val constant : Time_ns.t -> t
(** Always the same duration. *)

val uniform : lo:Time_ns.t -> hi:Time_ns.t -> t
(** Uniform on the inclusive range. *)

val exponential : mean:Time_ns.t -> t

val lognormal : median:Time_ns.t -> sigma:float -> t
(** Lognormal with the given median; [sigma] is the shape (log-space std
    dev).  [sigma] ~ 0.3–0.6 models realistic disk/network service times. *)

val shifted : Time_ns.t -> t -> t
(** [shifted base d] adds a deterministic floor to every sample — e.g.
    propagation delay plus variable queueing. *)

val mixture : (float * t) list -> t
(** [mixture [(w1, d1); (w2, d2); ...]] samples [di] with probability
    proportional to [wi].  Used for "mostly fast, occasionally slow"
    behaviours (e.g. a storage node hit by a GC pause).
    @raise Invalid_argument if weights are empty or non-positive. *)

val scaled : float -> t -> t
(** Multiply every sample by a factor (degraded / sped-up component). *)

val sample : t -> Rng.t -> Time_ns.t
(** Draw one duration.  Results are clamped to be non-negative. *)

