open Simcore

type policy =
  | Immediate
  | First_record of Time_ns.t
  | Timeout_boxcar of { timeout : Time_ns.t; max_records : int }

type t = {
  sim : Sim.t;
  policy : policy;
  flush : Wal.Log_record.t list -> unit;
  mutable buffer : Wal.Log_record.t list; (* newest first *)
  mutable timer : Sim.event_id option;
  mutable batches : int;
  mutable records : int;
}

let create ~sim ~policy ~flush =
  { sim; policy; flush; buffer = []; timer = None; batches = 0; records = 0 }

let do_flush t =
  (match t.timer with
  | Some id ->
    Sim.cancel t.sim id;
    t.timer <- None
  | None -> ());
  match t.buffer with
  | [] -> ()
  | buf ->
    t.buffer <- [];
    let batch = List.rev buf in
    t.batches <- t.batches + 1;
    t.records <- t.records + List.length batch;
    t.flush batch

let arm t delay =
  t.timer <-
    Some
      (Sim.schedule t.sim ~delay (fun () ->
           t.timer <- None;
           do_flush t))

let add t record =
  match t.policy with
  | Immediate ->
    t.buffer <- [ record ];
    do_flush t
  | First_record delay ->
    let was_empty = t.buffer = [] in
    t.buffer <- record :: t.buffer;
    if was_empty then arm t delay
  | Timeout_boxcar { timeout; max_records } ->
    let was_empty = t.buffer = [] in
    t.buffer <- record :: t.buffer;
    if List.length t.buffer >= max_records then do_flush t
    else if was_empty then arm t timeout

let flush_now = do_flush
let batches_flushed t = t.batches
let records_flushed t = t.records

let mean_batch_size t =
  if t.batches = 0 then 0. else float_of_int t.records /. float_of_int t.batches
