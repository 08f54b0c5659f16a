(** Deterministic pseudo-random numbers for the simulator.

    SplitMix64 core with convenience samplers.  Every stochastic component of
    the simulation draws from an explicitly threaded [Rng.t] so that a run is
    a pure function of its seed: identical seeds reproduce identical event
    schedules, which the test suite and the experiment harness rely on. *)

type t

val create : int -> t
(** [create seed] builds an independent generator.  Generators created from
    distinct seeds produce statistically independent streams. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t].
    Use to give each simulated component its own stream so that adding a
    component does not perturb the draws seen by others. *)

val copy : t -> t
(** [copy t] duplicates the current state (the copies then evolve
    independently but identically if used identically). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean (> 0). *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal sample via Box–Muller. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** exp of a Gaussian: the classic heavy-ish-tailed service-time model. *)


val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] draws [k] distinct elements
    ([k <= Array.length arr]). *)
