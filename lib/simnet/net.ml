open Simcore

type 'msg envelope = {
  src : Addr.t;
  dst : Addr.t;
  sent_at : Time_ns.t;
  bytes : int;
  msg : 'msg;
}

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
      (* always = dropped_down + dropped_blocked + dropped_partition
                  + dropped_random *)
  dropped_down : int;
  dropped_blocked : int;
  dropped_partition : int;
  dropped_random : int;
  bytes_sent : int;
  bytes_delivered : int;
}

type drop_cause = Down | Blocked | Partitioned | Random

type phase = Sent | Delivered | Dropped of drop_cause

(* Why a link is severed: a targeted [block] or a set-level [partition].
   The split feeds the cause-separated drop counters so a vopr scenario can
   distinguish partition loss from pinpoint blocks. *)
type sever = Open | Direct | Part

(* Everything the per-message path needs about one address.  Records are
   never removed: [set_up] and a slowdown of 1.0 reset the fields. *)
type 'msg endpoint = {
  addr : Addr.t;
  mutable handler : ('msg envelope -> unit) option;
  mutable up : bool;
  mutable slow : float;  (* latency multiplier, 1.0 = normal *)
}

(* Everything about one directed link: its delivery counters, its fault
   state, both endpoints and its resolved route, so [send] finds all of
   it with one lookup and the delivery closure carries the record
   itself.  Records are never removed ([reset_stats] zeroes the counters
   in place). *)
type 'msg link = {
  mutable l_sent : int;
  mutable l_delivered : int;
  mutable l_down : int;
  mutable l_blocked : int;
  mutable l_partition : int;
  mutable l_random : int;
  mutable sever : sever;
  mutable drop : float option;  (* per-link drop probability *)
  mutable latency : Distribution.t option;  (* per-link override *)
  src_ep : 'msg endpoint;
  dst_ep : 'msg endpoint;
  mutable route : Distribution.t;
      (* [latency], else [latency_fn], else the default; valid while
         [route_gen] equals the net's [route_gen] *)
  mutable route_gen : int;
}

(* Keyed by the packed (src, dst) int of [key].  Its low 31 bits are [dst]
   alone and the table indexes buckets by the hash's low bits, so the hash
   multiplies [src] in: without that every link into one destination
   would share a bucket. *)
module Links = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k + ((k lsr 31) * 0x9E3779B1)
end)

type link_stat = {
  sent_on : int;
  delivered_on : int;
  drop_down : int;
  drop_blocked : int;
  drop_partition : int;
  drop_random : int;
}

(* Global counters, bumped in place on the send/deliver hot path; the
   public immutable [stats] record is materialized on demand in [stats]. *)
type totals = {
  mutable n_sent : int;
  mutable n_delivered : int;
  mutable n_down : int;
  mutable n_blocked : int;
  mutable n_partition : int;
  mutable n_random : int;
  mutable n_bytes_sent : int;
  mutable n_bytes_delivered : int;
}

type 'msg t = {
  sim : Sim.t;
  rng : Rng.t;
  default_latency : Distribution.t;
  endpoints : 'msg endpoint Addr.Tbl.t;
  mutable latency_fn : Addr.t -> Addr.t -> Distribution.t option;
  mutable route_gen : int;  (* bumped by [set_latency_fn] *)
  mutable global_drop : float;
  links : 'msg link Links.t;
  mutable recorder : (phase -> src:Addr.t -> dst:Addr.t -> 'msg -> unit) option;
  totals : totals;
}

let create ~sim ~rng ~default_latency ?obs () =
  let t =
    {
      sim;
      rng;
      default_latency;
      endpoints = Addr.Tbl.create 64;
      latency_fn = (fun _ _ -> None);
      route_gen = 0;
      global_drop = 0.;
      links = Links.create 64;
      recorder = None;
      totals =
        {
          n_sent = 0;
          n_delivered = 0;
          n_down = 0;
          n_blocked = 0;
          n_partition = 0;
          n_random = 0;
          n_bytes_sent = 0;
          n_bytes_delivered = 0;
        };
    }
  in
  (match obs with
  | None -> ()
  | Some obs ->
    let reg = Obs.Ctx.registry obs in
    let c name f = Obs.Registry.counter_fn reg name f in
    let tl = t.totals in
    c "net_sent" (fun () -> tl.n_sent);
    c "net_delivered" (fun () -> tl.n_delivered);
    c "net_dropped" (fun () ->
        tl.n_down + tl.n_blocked + tl.n_partition + tl.n_random);
    c "net_dropped_down" (fun () -> tl.n_down);
    c "net_dropped_blocked" (fun () -> tl.n_blocked);
    c "net_dropped_partition" (fun () -> tl.n_partition);
    c "net_dropped_random" (fun () -> tl.n_random);
    c "net_bytes_sent" (fun () -> tl.n_bytes_sent);
    c "net_bytes_delivered" (fun () -> tl.n_bytes_delivered));
  t

let sim t = t.sim

(* Directed link key packed into one immediate int — no tuple allocation
   per lookup on the send path.  Addresses are small non-negative ints
   (node ids), comfortably below 2^31; the packed key sorts in the same
   order as the (src, dst) pair. *)
let key a b = (Addr.to_int a lsl 31) lor Addr.to_int b
let key_src k = k lsr 31
let key_dst k = k land 0x7FFF_FFFF

let endpoint_of t addr =
  match Addr.Tbl.find t.endpoints addr with
  | ep -> ep
  | exception Not_found ->
    let ep = { addr; handler = None; up = true; slow = 1.0 } in
    Addr.Tbl.replace t.endpoints addr ep;
    ep

let register t addr handler = (endpoint_of t addr).handler <- Some handler

(* A new link's [route_gen] of -1 never matches the net's, so its first
   message resolves the route. *)
let link_of t src dst =
  let k = key src dst in
  match Links.find t.links k with
  | l -> l
  | exception Not_found ->
    let l =
      { l_sent = 0; l_delivered = 0; l_down = 0; l_blocked = 0;
        l_partition = 0; l_random = 0; sever = Open; drop = None;
        latency = None; src_ep = endpoint_of t src; dst_ep = endpoint_of t dst;
        route = t.default_latency; route_gen = -1 }
    in
    Links.replace t.links k l;
    l

let set_link_latency t ~src ~dst dist =
  let l = link_of t src dst in
  l.latency <- Some dist;
  l.route_gen <- -1

let set_latency_fn t f =
  t.latency_fn <- f;
  t.route_gen <- t.route_gen + 1

let set_drop_probability t p = t.global_drop <- p
let set_link_drop t ~src ~dst p = (link_of t src dst).drop <- Some p

let set_node_slowdown t addr factor =
  if factor <= 0. then invalid_arg "Net.set_node_slowdown: non-positive";
  (endpoint_of t addr).slow <- factor

let set_down t addr = (endpoint_of t addr).up <- false
let set_up t addr = (endpoint_of t addr).up <- true

let is_down t addr =
  match Addr.Tbl.find t.endpoints addr with
  | ep -> not ep.up
  | exception Not_found -> false

let sever_both t cause a b =
  (link_of t a b).sever <- cause;
  (link_of t b a).sever <- cause

let block t a b = sever_both t Direct a b

let unblock t a b =
  let reopen k =
    match Links.find t.links k with
    | l -> l.sever <- Open
    | exception Not_found -> ()
  in
  reopen (key a b);
  reopen (key b a)

let partition t sa sb =
  Addr.Set.iter (fun a -> Addr.Set.iter (fun b -> sever_both t Part a b) sb) sa

let heal_partition t sa sb =
  Addr.Set.iter (fun a -> Addr.Set.iter (fun b -> unblock t a b) sb) sa

let route t (l : _ link) =
  if l.route_gen <> t.route_gen then begin
    l.route <-
      (match l.latency with
      | Some d -> d
      | None -> (
        match t.latency_fn l.src_ep.addr l.dst_ep.addr with
        | Some d -> d
        | None -> t.default_latency));
    l.route_gen <- t.route_gen
  end;
  l.route

let drop_probability t l =
  match l.drop with
  | Some p -> Float.max p t.global_drop
  | None -> t.global_drop

let stats t =
  let tl = t.totals in
  {
    sent = tl.n_sent;
    delivered = tl.n_delivered;
    dropped = tl.n_down + tl.n_blocked + tl.n_partition + tl.n_random;
    dropped_down = tl.n_down;
    dropped_blocked = tl.n_blocked;
    dropped_partition = tl.n_partition;
    dropped_random = tl.n_random;
    bytes_sent = tl.n_bytes_sent;
    bytes_delivered = tl.n_bytes_delivered;
  }

let reset_stats t =
  let tl = t.totals in
  tl.n_sent <- 0;
  tl.n_delivered <- 0;
  tl.n_down <- 0;
  tl.n_blocked <- 0;
  tl.n_partition <- 0;
  tl.n_random <- 0;
  tl.n_bytes_sent <- 0;
  tl.n_bytes_delivered <- 0;
  Links.iter
    (fun _ l ->
      l.l_sent <- 0;
      l.l_delivered <- 0;
      l.l_down <- 0;
      l.l_blocked <- 0;
      l.l_partition <- 0;
      l.l_random <- 0)
    t.links

let set_recorder t cb = t.recorder <- cb

let record t phase ~src ~dst msg =
  match t.recorder with None -> () | Some f -> f phase ~src ~dst msg

(* A record made by a fault setter, or zeroed by [reset_stats], has
   carried nothing: only links with a non-zero counter are listed. *)
let link_stats t =
  Links.fold
    (fun k c acc ->
      if
        c.l_sent + c.l_delivered + c.l_down + c.l_blocked + c.l_partition
        + c.l_random
        = 0
      then acc
      else
        ( (key_src k, key_dst k),
          {
            sent_on = c.l_sent;
            delivered_on = c.l_delivered;
            drop_down = c.l_down;
            drop_blocked = c.l_blocked;
            drop_partition = c.l_partition;
            drop_random = c.l_random;
          } )
        :: acc)
    t.links []
  |> List.sort (fun ((a1, a2), _) ((b1, b2), _) ->
         match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)

let note_drop t link cause =
  let tl = t.totals in
  match cause with
  | Down ->
    link.l_down <- link.l_down + 1;
    tl.n_down <- tl.n_down + 1
  | Blocked ->
    link.l_blocked <- link.l_blocked + 1;
    tl.n_blocked <- tl.n_blocked + 1
  | Partitioned ->
    link.l_partition <- link.l_partition + 1;
    tl.n_partition <- tl.n_partition + 1
  | Random ->
    link.l_random <- link.l_random + 1;
    tl.n_random <- tl.n_random + 1

(* Top-level (not a per-send closure): drop bookkeeping fires on both the
   send-time and delivery-time fault checks. *)
let drop_now t link cause msg =
  note_drop t link cause;
  record t (Dropped cause) ~src:link.src_ep.addr ~dst:link.dst_ep.addr msg

let deliver t link ~sent_at ~bytes msg =
  (* Down / blocked state is re-checked at delivery: a node that crashed
     while the message was in flight never sees it.  An unregistered
     destination counts as down. *)
  let dst_ep = link.dst_ep in
  if not dst_ep.up then drop_now t link Down msg
  else
    match link.sever with
    | Direct -> drop_now t link Blocked msg
    | Part -> drop_now t link Partitioned msg
    | Open -> (
      match dst_ep.handler with
      | None -> drop_now t link Down msg
      | Some handler ->
        let tl = t.totals in
        tl.n_delivered <- tl.n_delivered + 1;
        tl.n_bytes_delivered <- tl.n_bytes_delivered + bytes;
        link.l_delivered <- link.l_delivered + 1;
        let src = link.src_ep.addr and dst = dst_ep.addr in
        record t Delivered ~src ~dst msg;
        handler { src; dst; sent_at; bytes; msg })

let send t ~src ~dst ?(bytes = 64) msg =
  let tl = t.totals in
  tl.n_sent <- tl.n_sent + 1;
  tl.n_bytes_sent <- tl.n_bytes_sent + bytes;
  let link = link_of t src dst in
  link.l_sent <- link.l_sent + 1;
  record t Sent ~src ~dst msg;
  (* The drop draw happens only when no endpoint fault applies, and before
     the latency sample: this order is part of the RNG stream, so changing
     it changes every seeded run. *)
  if not link.src_ep.up then drop_now t link Down msg
  else
    match link.sever with
    | Direct -> drop_now t link Blocked msg
    | Part -> drop_now t link Partitioned msg
    | Open ->
      if Rng.bernoulli t.rng (drop_probability t link) then
        drop_now t link Random msg
      else begin
        let base = Distribution.sample (route t link) t.rng in
        let factor = link.src_ep.slow *. link.dst_ep.slow in
        let delay =
          if factor = 1.0 then base
          else int_of_float (factor *. float_of_int base)
        in
        let sent_at = Sim.now t.sim in
        ignore
          (Sim.schedule t.sim ~delay (fun () ->
               deliver t link ~sent_at ~bytes msg))
      end
