type event_id = int

type event = {
  at : Time_ns.t;
  seq : int;  (* doubles as the public event_id *)
  action : unit -> unit;
}

type probe = { on_start : unit -> unit; on_stop : unit -> unit }

type t = {
  mutable clock : Time_ns.t;
  queue : event Heap.t;
  cancelled : (event_id, unit) Hashtbl.t;
  mutable next_seq : int;
  mutable executed : int;
  mutable max_heap_depth : int;
  mutable probe : probe option;
}

type stats = { processed : int; pending : int; max_heap_depth : int }

let compare_event a b =
  let c = Time_ns.compare a.at b.at in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    clock = Time_ns.zero;
    queue = Heap.create ~cmp:compare_event;
    cancelled = Hashtbl.create 64;
    next_seq = 0;
    executed = 0;
    max_heap_depth = 0;
    probe = None;
  }

let now t = t.clock

let schedule_at t ~at action =
  let at = Time_ns.max at t.clock in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.queue { at; seq; action };
  let depth = Heap.length t.queue in
  if depth > t.max_heap_depth then t.max_heap_depth <- depth;
  seq

let schedule t ~delay action =
  schedule_at t ~at:(Time_ns.add t.clock (Time_ns.max delay 0)) action

let cancel t id = Hashtbl.replace t.cancelled id ()

(* A non-positive interval would reschedule at the same instant forever,
   and [run_until] would never return. *)
let rec every t ~interval f =
  if Time_ns.compare interval Time_ns.zero <= 0 then
    invalid_arg "Sim.every: interval must be positive";
  ignore
    (schedule t ~delay:interval (fun () -> if f () then every t ~interval f))

let exec t ev =
  if Hashtbl.mem t.cancelled ev.seq then Hashtbl.remove t.cancelled ev.seq
  else begin
    t.clock <- ev.at;
    t.executed <- t.executed + 1;
    (* The probe lives outside sim state (wall-clock timers, allocation
       counters); installing one changes nothing the simulation can
       observe. *)
    match t.probe with
    | None -> ev.action ()
    | Some p ->
      p.on_start ();
      ev.action ();
      p.on_stop ()
  end

let step t =
  if Heap.is_empty t.queue then false
  else begin
    exec t (Heap.pop_exn t.queue);
    true
  end

let run t = while step t do () done

let rec run_until t limit =
  match Heap.peek t.queue with
  | Some ev when Time_ns.compare ev.at limit <= 0 ->
    exec t (Heap.pop_exn t.queue);
    run_until t limit
  | _ -> if Time_ns.compare t.clock limit < 0 then t.clock <- limit

let pending t = Heap.length t.queue - Hashtbl.length t.cancelled
let processed t = t.executed

let stats t =
  { processed = t.executed; pending = pending t; max_heap_depth = t.max_heap_depth }

let set_probe t probe = t.probe <- probe
