(* Per-node bounded ring buffers for one cluster.  Recording draws no
   randomness and schedules no events, so an instrumented run is
   byte-identical to a bare one.  Node ids are small dense addresses, so
   the rings sit in an array indexed by node. *)

let min_depth = 16
let max_depth = 65536
let default_depth = 512

type ring = {
  role : Event.role;
  buf : (int * Event.t) array;
  mutable len : int;
  mutable head : int; (* next write position *)
  mutable evicted : int;
}

type t = { depth : int; mutable rings : ring option array (* by node *) }

let create ?(depth = default_depth) () =
  if depth < min_depth || depth > max_depth then
    invalid_arg
      (Printf.sprintf "Recorder.Rings.create: depth %d outside [%d, %d]" depth
         min_depth max_depth);
  { depth; rings = Array.make 64 None }

let dummy = (0, Event.Started)

let add t node role =
  let n = Array.length t.rings in
  if node >= n then begin
    let grown = Array.make (max (node + 1) (2 * n)) None in
    Array.blit t.rings 0 grown 0 n;
    t.rings <- grown
  end;
  let r =
    { role; buf = Array.make t.depth dummy; len = 0; head = 0; evicted = 0 }
  in
  t.rings.(node) <- Some r;
  r

let find t node = if node < Array.length t.rings then t.rings.(node) else None

let register t ~node ~role =
  match find t node with
  | Some _ -> ()
  | None -> ignore (add t node role : ring)

let note t ~node ~at ev =
  let r = match find t node with Some r -> r | None -> add t node Event.Unknown in
  r.buf.(r.head) <- (at, ev);
  r.head <- (r.head + 1) mod t.depth;
  if r.len < t.depth then r.len <- r.len + 1 else r.evicted <- r.evicted + 1

(* ------------------------------------------------------------ snapshots -- *)

type node_ring = {
  node : int;
  role : Event.role;
  depth : int;
  evicted : int;
  events : (int * Event.t) list; (* oldest first *)
}

type snapshot = { nodes : node_ring list }

let snapshot (t : t) =
  let cap = t.depth in
  let nodes = ref [] in
  for node = Array.length t.rings - 1 downto 0 do
    match t.rings.(node) with
    | None -> ()
    | Some r ->
      let start = (r.head - r.len + cap) mod cap in
      let events = List.init r.len (fun i -> r.buf.((start + i) mod cap)) in
      nodes :=
        { node; role = r.role; depth = cap; evicted = r.evicted; events }
        :: !nodes
  done;
  { nodes = !nodes }
