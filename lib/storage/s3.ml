open Simcore

type snapshot = {
  pg : Pg_id.t;
  seg : Quorum.Member_id.t;
  upto : Wal.Lsn.t;
  bytes : int;
  taken_at : Time_ns.t;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  latency : Distribution.t;
  mutable durable : snapshot list;
  mutable in_flight : int;
}

let create ~sim ~latency ~rng =
  { sim; rng; latency; durable = []; in_flight = 0 }

let upload t snap ~on_durable =
  t.in_flight <- t.in_flight + 1;
  let delay = Distribution.sample t.latency t.rng in
  ignore
    (Sim.schedule t.sim ~delay (fun () ->
         t.in_flight <- t.in_flight - 1;
         t.durable <- snap :: t.durable;
         on_durable ()))

let durable_upto t pg seg =
  List.fold_left
    (fun acc s ->
      if Pg_id.equal s.pg pg && Quorum.Member_id.equal s.seg seg then
        Wal.Lsn.max acc s.upto
      else acc)
    Wal.Lsn.none t.durable

let snapshots t = t.durable
let uploads_in_flight t = t.in_flight
