open Simcore

type t = {
  sim : Sim.t;
  rng : Rng.t;
  service : Distribution.t;
  per_byte_ns : int;
  mutable free_at : Time_ns.t;
  mutable completed : int;
}

let create ~sim ~rng ~service ~per_byte_ns =
  if per_byte_ns < 0 then invalid_arg "Disk.create: negative per-byte cost";
  {
    sim;
    rng;
    service;
    per_byte_ns;
    free_at = Time_ns.zero;
    completed = 0;
  }

let submit t ~bytes callback =
  let start = Time_ns.max (Sim.now t.sim) t.free_at in
  let service = Distribution.sample t.service t.rng in
  let transfer = bytes * t.per_byte_ns in
  let done_at = Time_ns.add start (Time_ns.add service transfer) in
  t.free_at <- done_at;
  ignore
    (Sim.schedule_at t.sim ~at:done_at (fun () ->
         t.completed <- t.completed + 1;
         callback ()))

let completed t = t.completed
