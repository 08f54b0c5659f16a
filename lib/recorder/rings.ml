(* Per-node bounded ring buffers, in the style of [Perf.Probe]:
   module-global mutable state living entirely outside the sim.  Recording
   draws no randomness and schedules no events, so an instrumented run is
   byte-identical to a bare one; while disabled every [note] is a no-op
   and hook points pay a single flag read. *)

let min_depth = 16
let max_depth = 65536
let default_depth = 512

type ring = {
  role : Event.role;
  cap : int;
  buf : (int * Event.t) array;
  mutable len : int;
  mutable head : int; (* next write position *)
  mutable evicted : int;
}

let on = ref false [@@sim_global]
let depth = ref default_depth [@@sim_global]
let rings : (int, ring) Hashtbl.t = Hashtbl.create 64 [@@sim_global]

let enabled () = !on
let enable () = on := true
let disable () = on := false

let set_depth d =
  if d < min_depth || d > max_depth then
    invalid_arg
      (Printf.sprintf "Recorder.Rings.set_depth: %d outside [%d, %d]" d
         min_depth max_depth)
  else depth := d

let reset () =
  Hashtbl.reset rings;
  depth := default_depth

let dummy = (0, Event.Started)

let fresh role =
  { role; cap = !depth; buf = Array.make !depth dummy; len = 0; head = 0;
    evicted = 0 }

let register ~node ~role =
  if not (Hashtbl.mem rings node) then Hashtbl.replace rings node (fresh role)

let ring_for node =
  match Hashtbl.find_opt rings node with
  | Some r -> r
  | None ->
    let r = fresh Event.Unknown in
    Hashtbl.replace rings node r;
    r

let note ~node ~at ev =
  if !on then begin
    let r = ring_for node in
    r.buf.(r.head) <- (at, ev);
    r.head <- (r.head + 1) mod r.cap;
    if r.len < r.cap then r.len <- r.len + 1 else r.evicted <- r.evicted + 1
  end

let registered () = Hashtbl.length rings

(* ------------------------------------------------------------ snapshots -- *)

type node_ring = {
  node : int;
  role : Event.role;
  depth : int;
  evicted : int;
  events : (int * Event.t) list; (* oldest first *)
}

type snapshot = { nodes : node_ring list }

let events_of r =
  let start = (r.head - r.len + r.cap) mod r.cap in
  List.init r.len (fun i -> r.buf.((start + i) mod r.cap))

let snapshot () =
  let nodes =
    Obs.Stable.sorted_bindings ~cmp:Int.compare rings
    |> List.map (fun (node, (r : ring)) ->
           {
             node;
             role = r.role;
             depth = r.cap;
             evicted = r.evicted;
             events = events_of r;
           })
  in
  { nodes }
