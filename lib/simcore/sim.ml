(* An event carries its own lifecycle state, so [cancel] flips a field and
   the dispatch loop tests it: no side table, and no work for an event
   that already ran. *)
type state = Queued | Ran | Cancelled

type event = {
  at : Time_ns.t;
  seq : int;  (* FIFO tie-break among same-instant events *)
  action : unit -> unit;
  mutable state : state;
}

type event_id = event

type probe = { on_start : unit -> unit; on_stop : unit -> unit }

(* The queue is an array-backed binary min-heap on (at, seq), compared
   inline.  [sentinel] fills the empty slots, so a popped event (and the
   closure it holds) is not kept alive by the array. *)
type t = {
  mutable clock : Time_ns.t;
  mutable heap : event array;
  mutable size : int;
  mutable cancelled_queued : int;
  sentinel : event;
  mutable next_seq : int;
  mutable executed : int;
  mutable max_heap_depth : int;
  mutable probe : probe option;
}

type stats = { processed : int; pending : int; max_heap_depth : int }

let create () =
  let sentinel = { at = max_int; seq = -1; action = ignore; state = Ran } in
  {
    clock = Time_ns.zero;
    heap = Array.make 16 sentinel;
    size = 0;
    cancelled_queued = 0;
    sentinel;
    next_seq = 0;
    executed = 0;
    max_heap_depth = 0;
    probe = None;
  }

let now t = t.clock

let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

(* Sift with a hole: move the hole, write [ev] once where it lands. *)
let rec sift_up heap i ev =
  if i = 0 then heap.(0) <- ev
  else
    let p = (i - 1) lsr 1 in
    let pe = heap.(p) in
    if before ev pe then begin
      heap.(i) <- pe;
      sift_up heap p ev
    end
    else heap.(i) <- ev

let rec sift_down heap size i ev =
  let l = (2 * i) + 1 in
  if l >= size then heap.(i) <- ev
  else
    let c = if l + 1 < size && before heap.(l + 1) heap.(l) then l + 1 else l in
    let ce = heap.(c) in
    if before ce ev then begin
      heap.(i) <- ce;
      sift_down heap size c ev
    end
    else heap.(i) <- ev

let pop t =
  let top = t.heap.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let last = t.heap.(n) in
  t.heap.(n) <- t.sentinel;
  if n > 0 then sift_down t.heap n 0 last;
  top

let schedule_at t ~at action =
  let ev = { at = Time_ns.max at t.clock; seq = t.next_seq; action; state = Queued } in
  t.next_seq <- t.next_seq + 1;
  let n = t.size in
  if n = Array.length t.heap then begin
    let bigger = Array.make (2 * n) t.sentinel in
    Array.blit t.heap 0 bigger 0 n;
    t.heap <- bigger
  end;
  t.size <- n + 1;
  sift_up t.heap n ev;
  if n + 1 > t.max_heap_depth then t.max_heap_depth <- n + 1;
  ev

let schedule t ~delay action =
  schedule_at t ~at:(Time_ns.add t.clock (Time_ns.max delay 0)) action

let cancel t ev =
  match ev.state with
  | Queued ->
    ev.state <- Cancelled;
    t.cancelled_queued <- t.cancelled_queued + 1
  | Ran | Cancelled -> ()

(* A non-positive interval would reschedule at the same instant forever,
   and [run_until] would never return. *)
let rec every t ~interval f =
  if Time_ns.compare interval Time_ns.zero <= 0 then
    invalid_arg "Sim.every: interval must be positive";
  ignore
    (schedule t ~delay:interval (fun () -> if f () then every t ~interval f))

let exec t ev =
  match ev.state with
  | Cancelled -> t.cancelled_queued <- t.cancelled_queued - 1
  | Queued | Ran -> (
    ev.state <- Ran;
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
      p.on_stop ())

let step t =
  t.size > 0
  && begin
    exec t (pop t);
    true
  end

let run t = while step t do () done

let run_until t limit =
  while t.size > 0 && t.heap.(0).at <= limit do
    exec t (pop t)
  done;
  if t.clock < limit then t.clock <- limit

let pending t = t.size - t.cancelled_queued
let processed t = t.executed

let stats t =
  { processed = t.executed; pending = pending t; max_heap_depth = t.max_heap_depth }

let set_probe t probe = t.probe <- probe
