open Simcore
open Quorum

type params = {
  segment_mttf : Time_ns.t;
  repair_detection : Time_ns.t;
  repair_duration : Time_ns.t;
  az_mttf : Time_ns.t;
  az_outage : Time_ns.t;
  horizon : Time_ns.t;
  groups : int;
}

let default_params =
  {
    segment_mttf = Time_ns.hours (24 * 182);
    repair_detection = Time_ns.sec 10;
    repair_duration = Time_ns.minutes 5;
    az_mttf = Time_ns.hours (24 * 730);
    az_outage = Time_ns.hours 1;
    horizon = Time_ns.hours (24 * 365);
    groups = 10_000;
  }

type result = {
  write_unavail : float;
  read_unavail : float;
  write_loss_episodes : int;
  read_loss_episodes : int;
  az_onsets : int;
  az_write_survived : int;
  az_read_survived : int;
  member_failures : int;
}

type event = Member_fail of int | Member_repair of int | Az_fail of int | Az_restore of int

(* One group simulated independently on its own tiny [Sim.t]. *)
let run_group ~rng ~params ~(members : Membership.member list) ~rule acc =
  let n = List.length members in
  let member_arr = Array.of_list members in
  let azs =
    List.sort_uniq Az.compare (List.map (fun (m : Membership.member) -> m.az) members)
  in
  let member_up = Array.make n true in
  let az_up = Hashtbl.create 4 in
  List.iter (fun az -> Hashtbl.replace az_up (Az.to_int az) true) azs;
  (* Events run on the group's own [Sim.t]: ties on the timestamp break on
     scheduling order, so same-instant events run in a fixed,
     seed-independent order. *)
  let sim = Sim.create () in
  let draw_exp mean = int_of_float (Rng.exponential rng ~mean:(float_of_int mean)) in
  let up_set () =
    let s = ref Member_id.Set.empty in
    for i = 0 to n - 1 do
      let m = member_arr.(i) in
      if member_up.(i) && Hashtbl.find az_up (Az.to_int m.Membership.az) then
        s := Member_id.Set.add m.Membership.id !s
    done;
    !s
  in
  let write_ok () = Quorum_set.satisfied rule.Quorum_set.Rule.write (up_set ()) in
  let read_ok () = Quorum_set.satisfied rule.Quorum_set.Rule.read (up_set ()) in
  let wu = ref 0 and ru = ref 0 in
  let w_eps = ref 0 and r_eps = ref 0 in
  let az_onsets = ref 0 and az_w = ref 0 and az_r = ref 0 in
  let failures = ref 0 in
  let last_t = ref 0 in
  let w_was = ref true and r_was = ref true in
  let account now =
    let span = now - !last_t in
    if not !w_was then wu := !wu + span;
    if not !r_was then ru := !ru + span;
    last_t := now
  in
  let note_transition () =
    let w = write_ok () and r = read_ok () in
    if !w_was && not w then incr w_eps;
    if !r_was && not r then incr r_eps;
    w_was := w;
    r_was := r
  in
  let rec push at ev =
    ignore (Sim.schedule_at sim ~at (fun () -> handle ev) : Sim.event_id)
  and handle ev =
    let at = Sim.now sim in
    account at;
    (match ev with
    | Member_fail i ->
      if member_up.(i) then begin
        incr failures;
        member_up.(i) <- false;
        push
          (at + params.repair_detection + params.repair_duration)
          (Member_repair i)
      end
    | Member_repair i ->
      member_up.(i) <- true;
      push (at + draw_exp params.segment_mttf) (Member_fail i)
    | Az_fail az ->
      (* AZ+1 readout: state of the quorum at outage onset. *)
      incr az_onsets;
      Hashtbl.replace az_up az false;
      if write_ok () then incr az_w;
      if read_ok () then incr az_r;
      push (at + params.az_outage) (Az_restore az)
    | Az_restore az ->
      Hashtbl.replace az_up az true;
      push (at + draw_exp params.az_mttf) (Az_fail az));
    note_transition ()
  in
  (* Seed initial failure draws. *)
  for i = 0 to n - 1 do
    push (draw_exp params.segment_mttf) (Member_fail i)
  done;
  List.iter
    (fun az -> push (draw_exp params.az_mttf) (Az_fail (Az.to_int az)))
    azs;
  Sim.run_until sim params.horizon;
  account params.horizon;
  let total = params.horizon in
  let uw, ur, we, re, ao, aw, ar, f = acc in
  ( uw +. (float_of_int !wu /. float_of_int total),
    ur +. (float_of_int !ru /. float_of_int total),
    we + !w_eps,
    re + !r_eps,
    ao + !az_onsets,
    aw + !az_w,
    ar + !az_r,
    f + !failures )

let run ~rng ~params ~members ~rule =
  let acc = ref (0., 0., 0, 0, 0, 0, 0, 0) in
  for _ = 1 to params.groups do
    acc := run_group ~rng ~params ~members ~rule !acc
  done;
  let uw, ur, we, re, ao, aw, ar, f = !acc in
  let g = float_of_int params.groups in
  {
    write_unavail = uw /. g;
    read_unavail = ur /. g;
    write_loss_episodes = we;
    read_loss_episodes = re;
    az_onsets = ao;
    az_write_survived = aw;
    az_read_survived = ar;
    member_failures = f;
  }

type analytic = { rho : float; p_write_loss : float; p_read_loss : float }

let analytic ~params ~members ~rule =
  let mttr =
    float_of_int (Time_ns.add params.repair_detection params.repair_duration)
  in
  let mttf = float_of_int params.segment_mttf in
  let rho = mttr /. (mttf +. mttr) in
  let member_arr = Array.of_list members in
  let n = Array.length member_arr in
  if n > 20 then invalid_arg "Fleet_model.analytic: too many members";
  let p_not = ref 0. and p_not_read = ref 0. in
  for mask = 0 to (1 lsl n) - 1 do
    (* mask bit set = member down *)
    let prob = ref 1. and up = ref Member_id.Set.empty in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then prob := !prob *. rho
      else begin
        prob := !prob *. (1. -. rho);
        up := Member_id.Set.add member_arr.(i).Membership.id !up
      end
    done;
    if not (Quorum_set.satisfied rule.Quorum_set.Rule.write !up) then
      p_not := !p_not +. !prob;
    if not (Quorum_set.satisfied rule.Quorum_set.Rule.read !up) then
      p_not_read := !p_not_read +. !prob
  done;
  { rho; p_write_loss = !p_not; p_read_loss = !p_not_read }

type az_tolerance = {
  write_survives_az : bool;
  read_survives_az : bool;
  write_survives_az_plus_one : bool;
  read_survives_az_plus_one : bool;
}

let azs_of members =
  List.sort_uniq Az.compare
    (List.map (fun (m : Membership.member) -> m.Membership.az) members)

let survivors_after_az members az =
  List.filter_map
    (fun (m : Membership.member) ->
      if Az.equal m.Membership.az az then None else Some m.Membership.id)
    members

let az_tolerance ~members ~rule =
  let write = rule.Quorum_set.Rule.write and read = rule.Quorum_set.Rule.read in
  let check quorum ~plus_one =
    List.for_all
      (fun az ->
        let up = survivors_after_az members az in
        if plus_one then
          (* Worst case: the adversary also removes any one survivor. *)
          List.for_all
            (fun extra ->
              let up' =
                Member_id.set_of_list
                  (List.filter (fun m -> not (Member_id.equal m extra)) up)
              in
              Quorum_set.satisfied quorum up')
            up
        else Quorum_set.satisfied quorum (Member_id.set_of_list up))
      (azs_of members)
  in
  {
    write_survives_az = check write ~plus_one:false;
    read_survives_az = check read ~plus_one:false;
    write_survives_az_plus_one = check write ~plus_one:true;
    read_survives_az_plus_one = check read ~plus_one:true;
  }

let analytic_given_az ~params ~members ~rule =
  let mttr =
    float_of_int (Time_ns.add params.repair_detection params.repair_duration)
  in
  let rho = mttr /. (float_of_int params.segment_mttf +. mttr) in
  (* Worst AZ: maximize loss probability. *)
  let loss quorum =
    List.fold_left
      (fun worst az ->
        let up = Array.of_list (survivors_after_az members az) in
        let n = Array.length up in
        let p = ref 0. in
        for mask = 0 to (1 lsl n) - 1 do
          let prob = ref 1. and alive = ref Member_id.Set.empty in
          for i = 0 to n - 1 do
            if mask land (1 lsl i) <> 0 then prob := !prob *. rho
            else begin
              prob := !prob *. (1. -. rho);
              alive := Member_id.Set.add up.(i) !alive
            end
          done;
          if not (Quorum_set.satisfied quorum !alive) then p := !p +. !prob
        done;
        Float.max worst !p)
      0. (azs_of members)
  in
  (loss rule.Quorum_set.Rule.write, loss rule.Quorum_set.Rule.read)
