(** The repro artifact: every ring's snapshot plus the network's
    drop-cause and per-link delivery counters, with a byte-stable JSON
    round-trip.  vopr writes one next to each shrunk failing scenario;
    [aurora_cli explain] reconstructs timelines from the file alone.

    Net counters are plain-int records rather than [Simnet.Net.stats] so
    this library stays below [lib/simnet] — the harness translates when
    assembling an artifact. *)

type link = {
  src : int;
  dst : int;
  l_sent : int;
  l_delivered : int;
  l_down : int;
  l_blocked : int;
  l_partition : int;
  l_random : int;
}

type net = {
  sent : int;
  delivered : int;
  dropped_down : int;
  dropped_blocked : int;
  dropped_partition : int;
  dropped_random : int;
  links : link list;
}

type t = { snapshot : Rings.snapshot; net : net option }

val make : snapshot:Rings.snapshot -> ?net:net -> unit -> t
val to_json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result

val to_string : t -> string
(** Pretty, byte-stable JSON with a trailing newline — the on-disk
    [.recorder.json] format. *)

val of_string : string -> (t, string) result

(** What to explain. *)
type target = Lsn of int | Txn of int | Pg of int

val target_name : target -> string

val target_of_string : string -> (target, string) result
(** Parses ["400"] or ["lsn:400"], ["txn:17"], ["pg:0"].  Numbers must be
    non-negative: [-1] is the recorder's "not applicable", so [pg:-1]
    would match every event that names no PG. *)

val timeline : t -> target -> Correlate.entry list

val explain : t -> target -> string
(** Human-readable causal timeline: header, one line per event, then the
    net totals and the per-link stats for every link the timeline
    traversed — so a dropped send comes with its cause (partition vs
    blocked vs down vs random loss).  An LSN or txn target ends with the
    record's (the txn's commit record's) stage breakdown: its time at
    each [Obs.Commit_path] stage and the span from the previous one,
    rebuilt by replaying each ring through {!Sink.replay}.
    Byte-deterministic. *)

val explain_json : t -> target -> Obs.Json.t
(** Same content as {!explain}, as deterministic JSON; the breakdown is
    the ["stages"] field ([null] when the record's allocation is not in
    the rings). *)

val stage_timelines : t -> (int * (int * int * int array) list) list
(** Each ring that holds writer moments, replayed through {!Sink.replay}
    into a fresh [Obs.Commit_path]: [(node, timelines)], with timelines as
    [Obs.Commit_path.timelines] gives them. *)

