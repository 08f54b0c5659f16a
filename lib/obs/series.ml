type kind =
  | KCounter of { mutable last : int }
  | KGauge
  | KHist of {
      pct : float;
      mutable snap : (Simcore.Histogram.t * Simcore.Histogram.snapshot) option;
    }
  | KFn of (unit -> float)

type channel = {
  label : string;
  name : string; (* "" for KFn *)
  labels : Registry.labels;
  kind : kind;
  data : float array; (* capacity slots; nan before the channel existed *)
}

type t = {
  registry : Registry.t;
  capacity : int;
  mutable channels : channel list; (* insertion order *)
  times : Simcore.Time_ns.t array;
  mutable len : int;
  mutable stride : int;
  mutable skip : int; (* ticks to swallow before the next recorded sample *)
  mutable last_at : Simcore.Time_ns.t;
}

let create ?(capacity = 512) ~registry () =
  if capacity < 2 then invalid_arg "Obs.Series.create: capacity";
  {
    registry;
    capacity;
    channels = [];
    times = Array.make capacity 0;
    len = 0;
    stride = 1;
    skip = 0;
    last_at = 0;
  }

let default_label name labels suffix =
  let base =
    match labels with
    | [] -> name
    | _ ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"
  in
  base ^ suffix

let add_channel t label name labels kind =
  if not (List.exists (fun c -> String.equal c.label label) t.channels) then begin
    let ch = { label; name; labels; kind; data = Array.make t.capacity Float.nan } in
    t.channels <- t.channels @ [ ch ]
  end

let track_counter t ?(labels = []) ?label name =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let label =
    match label with Some l -> l | None -> default_label name labels "/s"
  in
  add_channel t label name labels (KCounter { last = 0 })

let track_gauge t ?(labels = []) ?label name =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let label = match label with Some l -> l | None -> default_label name labels "" in
  add_channel t label name labels KGauge

let track_histogram t ?(labels = []) ?label ~pct name =
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let label =
    match label with
    | Some l -> l
    | None -> default_label name labels (Printf.sprintf ".p%g" pct)
  in
  add_channel t label name labels (KHist { pct; snap = None })

let track_fn t ~label f = add_channel t label "" [] (KFn f)

let read_value t ch ~at =
  match ch.kind with
  | KCounter st ->
    let cur =
      match Registry.counter_value t.registry ~labels:ch.labels ch.name with
      | Some v -> v
      | None -> st.last
    in
    let dt_ns = at - t.last_at in
    let v =
      if dt_ns <= 0 then Float.nan
      else float_of_int (cur - st.last) *. 1e9 /. float_of_int dt_ns
    in
    st.last <- cur;
    v
  | KGauge -> (
    match Registry.gauge_value t.registry ~labels:ch.labels ch.name with
    | Some v -> v
    | None -> Float.nan)
  | KHist st -> (
    match Registry.find_histogram t.registry ~labels:ch.labels ch.name with
    | None ->
      st.snap <- None;
      Float.nan
    | Some h ->
      let open Simcore in
      match st.snap with
      | Some (h0, s) when h0 == h ->
        let v =
          if Histogram.count_since h s > 0 then
            float_of_int (Histogram.percentile_since h s st.pct)
          else Float.nan
        in
        (* The next window starts here: the same buffer, refreshed. *)
        Histogram.refresh s;
        v
      | _ ->
        (* First window (or the histogram was re-registered): whole-run
           view so the channel is not blind to pre-existing samples. *)
        let v =
          if Histogram.count h > 0 then float_of_int (Histogram.percentile h st.pct)
          else Float.nan
        in
        st.snap <- Some (h, Histogram.snapshot h);
        v)
  | KFn f -> f ()

(* Keep even indices plus the newest sample; returns the new length. *)
let compact_floats arr len =
  let j = ref 0 in
  for i = 0 to len - 1 do
    if i land 1 = 0 || i = len - 1 then begin
      arr.(!j) <- arr.(i);
      incr j
    end
  done;
  !j

let compact_ints arr len =
  let j = ref 0 in
  for i = 0 to len - 1 do
    if i land 1 = 0 || i = len - 1 then begin
      arr.(!j) <- arr.(i);
      incr j
    end
  done;
  !j

let sample t ~at =
  if t.skip > 0 then t.skip <- t.skip - 1
  else begin
    if t.len = t.capacity then begin
      let new_len = compact_ints t.times t.len in
      List.iter (fun ch -> ignore (compact_floats ch.data t.len)) t.channels;
      t.len <- new_len;
      t.stride <- t.stride * 2
    end;
    (* Read every channel before bumping shared state: rates and windowed
       percentiles all close their window at the same instant. *)
    let vs = List.map (fun ch -> (ch, read_value t ch ~at)) t.channels in
    List.iter (fun (ch, v) -> ch.data.(t.len) <- v) vs;
    t.times.(t.len) <- at;
    t.len <- t.len + 1;
    t.last_at <- at;
    t.skip <- t.stride - 1
  end

let n_samples t = t.len
let n_channels t = List.length t.channels
let stride t = t.stride
let channel_labels t = List.map (fun c -> c.label) t.channels
let timestamps t = Array.sub t.times 0 t.len

let points t label =
  List.find_opt (fun c -> String.equal c.label label) t.channels
  |> Option.map (fun c -> Array.sub c.data 0 t.len)

let to_json t =
  let times = List.init t.len (fun i -> Json.Int t.times.(i)) in
  let chans =
    List.map
      (fun ch ->
        Json.Obj
          [
            ("label", Json.String ch.label);
            ("points", Json.List (List.init t.len (fun i -> Json.Float ch.data.(i))));
          ])
      t.channels
  in
  Json.Obj
    [
      ("n_samples", Json.Int t.len);
      ("stride", Json.Int t.stride);
      ("capacity", Json.Int t.capacity);
      ("t_ns", Json.List times);
      ("channels", Json.List chans);
    ]
