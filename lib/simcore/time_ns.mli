(** Simulated time, in integer nanoseconds.

    All simulation components share a single monotonically advancing clock
    owned by the {!Sim} event loop.  Durations and instants share the same
    representation; an instant is a duration since the simulation epoch. *)

type t = int
(** Nanoseconds since the simulation epoch (instants) or a span
    (durations).  63-bit ints give ~292 years of range, far beyond any
    simulated horizon used here. *)

val zero : t

val ns : int -> t
(** [ns x] is [x] nanoseconds. *)

val us : int -> t
(** [us x] is [x] microseconds. *)

val ms : int -> t
(** [ms x] is [x] milliseconds. *)

val sec : int -> t
(** [sec x] is [x] seconds. *)

val minutes : int -> t
val hours : int -> t

val of_float_us : float -> t
(** [of_float_us x] converts a fractional microsecond duration, rounding to
    the nearest nanosecond.  Negative inputs clamp to [zero]. *)

val add : t -> t -> t
val sub : t -> t -> t
val diff : t -> t -> t
(** [diff later earlier] = [later - earlier]. *)

val max : t -> t -> t
val min : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)

val to_string : t -> string
