(** Write batching ("boxcarring") policies for the redo stream (§2.2).

    The classic trade-off: issue each record immediately (latency, poor
    packing) or wait to fill a boxcar (throughput, but early records wait
    for later ones or a timeout — "jitter is greatest under low load when
    the boxcar times out").  Aurora's answer: submit the asynchronous
    network operation as soon as the first record enters the buffer, but
    keep filling until the operation actually executes — no added latency,
    and packing comes free whenever the system is busy.

    The writer keeps one boxcar per protection group: a record enters it
    once, and the [flush] callback sends the packed batch to every segment
    on the group's roster. *)

type policy =
  | Immediate
      (** No batching: every record is its own network operation. *)
  | First_record of Simcore.Time_ns.t
      (** Aurora's policy: the async send fires this long after the first
          record arrives (the local I/O-submission delay), carrying
          everything that accumulated meanwhile. *)
  | Timeout_boxcar of { timeout : Simcore.Time_ns.t; max_records : int }
      (** Traditional group commit: wait for [max_records] or [timeout],
          whichever first. *)

type t

val create :
  sim:Simcore.Sim.t -> policy:policy -> flush:(Wal.Log_record.t list -> unit) -> t

val add : t -> Wal.Log_record.t -> unit

val flush_now : t -> unit
(** Force out anything pending and cancel the armed timer. *)

val batches_flushed : t -> int
val records_flushed : t -> int

val mean_batch_size : t -> float
(** Packing efficiency metric for the E7 experiment. *)
