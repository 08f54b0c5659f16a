(** The suppression baseline: pre-existing debt, frozen.

    The baseline file holds one {!Finding.key} per line ([rule|file|line|col];
    [#]-comments and blank lines ignored).  A finding whose key appears in
    the baseline is reported as suppressed and does not fail the gate; any
    finding not in the baseline is new debt and fails the build.
    [aurora_lint --update-baseline] regenerates the file from the current
    findings, so shrinking it is one command away and growing it is a
    reviewable diff. *)

type t

val empty : t

val load : string -> t
(** Missing file is an empty baseline (the desired steady state). *)

val mem : t -> Finding.t -> bool
val size : t -> int

val save : string -> Finding.t list -> unit
(** Write the keys of the given findings with a header comment, ordered by
    source position (file, line, col, rule) so regeneration is
    byte-stable for a given finding set. *)
