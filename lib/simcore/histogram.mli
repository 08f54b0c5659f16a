(** Log-bucketed latency histogram (HDR-style).

    Records non-negative integer values (nanoseconds in practice) into
    buckets whose width grows geometrically, giving a bounded relative
    quantile error (~3% with the default 16 sub-buckets per octave) at O(1)
    record cost and a few KB of memory regardless of sample count.  This is
    the metric sink for every latency measurement in the repository. *)

type t

val create : unit -> t
(** Default precision: 16 linear sub-buckets per power of two. *)

val record : t -> int -> unit
(** Record one value; negative values clamp to 0. *)

val record_span : t -> Time_ns.t -> Time_ns.t -> unit
(** [record_span h start stop] records [stop - start]. *)

val merge : t -> t -> t
(** New histogram holding both inputs' samples. *)

val count : t -> int
val min_value : t -> int
(** 0 when empty. *)

val max_value : t -> int
val mean : t -> float
val stddev : t -> float
val total : t -> float
(** Sum of recorded values. *)

val percentile : t -> float -> int
(** [percentile h p] for [p] in [\[0, 100\]].  Returns the upper edge of the
    bucket containing the p-th percentile sample; 0 when empty. *)

val median : t -> int

(** Windowed views: a [snapshot] freezes the bucket counts at one instant;
    [percentile_since]/[count_since] answer queries over only the samples
    recorded after the snapshot was taken.  This is what lets a time-series
    sampler derive per-window p50/p99 from a cumulative histogram without
    resetting it (the histogram stays a whole-run aggregate for everyone
    else). *)

type snapshot

val snapshot : t -> snapshot

val refresh : snapshot -> unit
(** Move the snapshot to now, in place: afterwards it answers as a fresh
    [snapshot] of its histogram would, and nothing is allocated. *)

val count_since : t -> snapshot -> int
(** Samples recorded after [snapshot]. *)

val percentile_since : t -> snapshot -> float -> int
(** Percentile over the samples recorded after [snapshot]; 0 when the
    window is empty.
    @raise Invalid_argument if the snapshot came from a different
    histogram instance. *)
