(** Fixed-width table rendering for experiment output. *)

type t

val create : title:string -> columns:string list -> t
val row : t -> string list -> unit

val require : t -> ok:bool -> string list -> unit
(** A row that states a requirement of the experiment (e.g. no lost
    acknowledged commit).  It renders as {!row} does; when [ok] is false
    it is also a failed requirement, which {!failures} names. *)

val failures : t -> string list
(** The failed requirements of the table and then of its subtables, in
    row order, each as ["<title>: <cell> | <cell> ..."].  Empty when every
    requirement holds. *)

val note : t -> string -> unit
(** Free-form line appended under the table. *)

val add_subtable : t -> t -> unit
(** Attach a secondary table rendered after the notes (e.g. a per-stage
    latency breakdown under a protocol-comparison table). *)

val to_string : t -> string

val f2 : float -> string
(** Two-decimal float. *)

val pct : float -> string
(** Fraction rendered as a percentage. *)

val ns : float -> string
(** Nanosecond quantity with adaptive unit. *)

val time : Simcore.Time_ns.t -> string
