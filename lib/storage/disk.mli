(** Simulated storage device: a FIFO queue with a stochastic service time
    plus a per-byte transfer cost.

    Every durable action on a storage node (hot-log append, block
    materialization, snapshot write) passes through the node's disk, so
    device latency and queueing show up in acknowledgement timing exactly
    where the paper's write path would see them. *)

type t

val create :
  sim:Simcore.Sim.t ->
  rng:Simcore.Rng.t ->
  service:Simcore.Distribution.t ->
  per_byte_ns:int ->
  t

val submit : t -> bytes:int -> (unit -> unit) -> unit
(** Enqueue an I/O; the callback fires when it completes (FIFO order). *)

val completed : t -> int
