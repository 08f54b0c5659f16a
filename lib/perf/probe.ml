type subsystem = Sim_dispatch | Net_delivery | Storage_apply | Consistency_advance

let all = [ Sim_dispatch; Net_delivery; Storage_apply; Consistency_advance ]

let name = function
  | Sim_dispatch -> "sim_dispatch"
  | Net_delivery -> "net_delivery"
  | Storage_apply -> "storage_apply"
  | Consistency_advance -> "consistency_advance"

let index = function
  | Sim_dispatch -> 0
  | Net_delivery -> 1
  | Storage_apply -> 2
  | Consistency_advance -> 3

(* One mutable slot per subsystem: accumulated totals plus the open span's
   marks.  A plain record per subsystem, allocated once at module init, so
   the measuring path itself allocates nothing it would then count. *)
type slot = {
  mutable calls : int;
  mutable wall_ns : int;
  mutable minor_words : float;
  mutable open_wall : int;  (** -1 = no open span. *)
  mutable open_minor : float;
}

let fresh_slot () =
  { calls = 0; wall_ns = 0; minor_words = 0.; open_wall = -1; open_minor = 0. }

let slots = Array.init 4 (fun _ -> fresh_slot ()) [@@sim_global]
let on = ref false [@@sim_global]
let enabled () = !on
let enable () = on := true
let disable () = on := false

let reset () =
  Array.iter
    (fun s ->
      s.calls <- 0;
      s.wall_ns <- 0;
      s.minor_words <- 0.;
      s.open_wall <- -1;
      s.open_minor <- 0.)
    slots

let start sub =
  if !on then begin
    let s = slots.(index sub) in
    s.open_minor <- Gc.minor_words ();
    s.open_wall <- Clock.now_ns ()
  end

let stop sub =
  if !on then begin
    let s = slots.(index sub) in
    if s.open_wall >= 0 then begin
      s.calls <- s.calls + 1;
      s.wall_ns <- s.wall_ns + max 0 (Clock.now_ns () - s.open_wall);
      s.minor_words <- s.minor_words +. (Gc.minor_words () -. s.open_minor);
      s.open_wall <- -1
    end
  end

type stat = { calls : int; wall_ns : int; minor_words : float }

let stat sub =
  let s = slots.(index sub) in
  { calls = s.calls; wall_ns = s.wall_ns; minor_words = s.minor_words }

let stats () = List.map (fun sub -> (name sub, stat sub)) all

let install_sim sim =
  Simcore.Sim.set_probe sim
    (Some
       {
         Simcore.Sim.on_start = (fun () -> start Sim_dispatch);
         on_stop = (fun () -> stop Sim_dispatch);
       })
