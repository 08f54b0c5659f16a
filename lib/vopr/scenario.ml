type trigger =
  | At of Simcore.Time_ns.t
  | At_lsn of int

type action =
  | Noop
  | Crash_node of int * int
  | Restart_node of int * int
  | Destroy_node of int * int
  | Slow_node of int * int * float
  | Fail_az of int
  | Restore_az of int
  | Partition_az of int
  | Heal_az of int
  | Start_replacement of int * int
  | Finish_replacement of int * int
  | Finish_when_caught_up of int * int
  | Revert_replacement of int * int
  | Grow_volume
  | Change_scheme_3_of_4 of int * int
  | Crash_writer
  | Recover_writer

type expectation =
  | Write_available of bool
  | Az_plus_one of bool
  | Writer_open of bool
  | Commits_progressing
  | Epoch_at_least of int * int
  | Caught_up of int * int

type step = {
  trigger : trigger;
  action : action;
  expect : expectation list;
}

type t = {
  name : string;
  n_pgs : int;
  layout : Quorum.Layout.t;
  replicas : int;
  rate : float;
  duration_ms : int;
  quiesce_ms : int;
  recorder_depth : int;
  steps : step list;
}

(* ---- combinators ---- *)

let at_ms ms = At (Simcore.Time_ns.ms ms)
let at_lsn lsn = At_lsn lsn
let step ?(expect = []) trigger action = { trigger; action; expect }

let make ~name ?(n_pgs = 1) ?(layout = Quorum.Layout.V6) ?(replicas = 0)
    ?(rate = 1500.) ?(duration_ms = 1500) ?(quiesce_ms = 1500)
    ?(recorder_depth = Recorder.Rings.default_depth) steps =
  {
    name;
    n_pgs;
    layout;
    replicas;
    rate;
    duration_ms;
    quiesce_ms;
    recorder_depth;
    steps;
  }

(* ---- printer ---- *)

(* Rates and slow-down factors print with %g: every value the combinators
   and the nemesis generator produce (integral or short decimal) survives
   the float -> text -> float trip, which is all round-tripping promises. *)
let float_str f = Printf.sprintf "%g" f
let bool_str b = if b then "true" else "false"

let layout_str = function
  | Quorum.Layout.V6 -> "v6"
  | Quorum.Layout.Tiered -> "tiered"
  | Quorum.Layout.V3 -> "v3"

let trigger_str = function
  | At t -> Printf.sprintf "at=%dms" (t / 1_000_000)
  | At_lsn lsn -> Printf.sprintf "at_lsn=%d" lsn

let action_str = function
  | Noop -> "noop"
  | Crash_node (pg, m) -> Printf.sprintf "crash_node pg=%d m=%d" pg m
  | Restart_node (pg, m) -> Printf.sprintf "restart_node pg=%d m=%d" pg m
  | Destroy_node (pg, m) -> Printf.sprintf "destroy_node pg=%d m=%d" pg m
  | Slow_node (pg, m, f) ->
    Printf.sprintf "slow_node pg=%d m=%d factor=%s" pg m (float_str f)
  | Fail_az az -> Printf.sprintf "fail_az az=%d" az
  | Restore_az az -> Printf.sprintf "restore_az az=%d" az
  | Partition_az az -> Printf.sprintf "partition_az az=%d" az
  | Heal_az az -> Printf.sprintf "heal_az az=%d" az
  | Start_replacement (pg, m) -> Printf.sprintf "start_replace pg=%d m=%d" pg m
  | Finish_replacement (pg, m) ->
    Printf.sprintf "finish_replace pg=%d m=%d" pg m
  | Finish_when_caught_up (pg, m) ->
    Printf.sprintf "finish_when_caught_up pg=%d m=%d" pg m
  | Revert_replacement (pg, m) ->
    Printf.sprintf "revert_replace pg=%d m=%d" pg m
  | Grow_volume -> "grow"
  | Change_scheme_3_of_4 (pg, az) ->
    Printf.sprintf "scheme_3_of_4 pg=%d drop_az=%d" pg az
  | Crash_writer -> "crash_writer"
  | Recover_writer -> "recover_writer"

let expect_str = function
  | Write_available b -> Printf.sprintf "write_available=%s" (bool_str b)
  | Az_plus_one b -> Printf.sprintf "az_plus_one=%s" (bool_str b)
  | Writer_open b -> Printf.sprintf "writer_open=%s" (bool_str b)
  | Commits_progressing -> "commits_progressing"
  | Epoch_at_least (pg, e) -> Printf.sprintf "epoch pg=%d min=%d" pg e
  | Caught_up (pg, m) -> Printf.sprintf "caught_up pg=%d m=%d" pg m

let step_str st =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "step ";
  Buffer.add_string buf (trigger_str st.trigger);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (action_str st.action);
  List.iter
    (fun e ->
      Buffer.add_string buf " expect ";
      Buffer.add_string buf (expect_str e))
    st.expect;
  Buffer.contents buf

let to_string t =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "scenario %s" t.name;
  line "pgs %d" t.n_pgs;
  line "layout %s" (layout_str t.layout);
  line "replicas %d" t.replicas;
  line "rate %s" (float_str t.rate);
  line "duration_ms %d" t.duration_ms;
  line "quiesce_ms %d" t.quiesce_ms;
  line "recorder_depth %d" t.recorder_depth;
  List.iter (fun st -> line "%s" (step_str st)) t.steps;
  Buffer.contents buf

(* ---- parser ---- *)

(* Line-oriented recursive descent in the Obs.Json style: a cursor over the
   token list of one line, [fail] carrying the 1-based line number.  Header
   directives fill a mutable draft; [step] lines parse trigger, action name,
   the action's k=v arguments, then any number of [expect <spec>] tails. *)

exception Parse_error of string

let of_string src =
  let failf lineno fmt =
    Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" lineno m))) fmt
  in
  let tokens line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  (* k=v argument lists: every action/expectation argument is named, so a
     spec reads the same regardless of argument order. *)
  let split_kv tok =
    match String.index_opt tok '=' with
    | None -> None
    | Some i ->
      Some
        ( String.sub tok 0 i,
          String.sub tok (i + 1) (String.length tok - i - 1) )
  in
  let int_of lineno what v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> failf lineno "%s: expected an integer, got %S" what v
  in
  let float_of lineno what v =
    match float_of_string_opt v with
    | Some f -> f
    | None -> failf lineno "%s: expected a number, got %S" what v
  in
  let bool_of lineno what v =
    match v with
    | "true" -> true
    | "false" -> false
    | _ -> failf lineno "%s: expected true or false, got %S" what v
  in
  let arg lineno args key =
    match List.assoc_opt key args with
    | Some v -> v
    | None -> failf lineno "missing argument %s=" key
  in
  let int_arg lineno args key = int_of lineno key (arg lineno args key) in
  let float_arg lineno args key = float_of lineno key (arg lineno args key) in
  (* Collect the k=v tokens following a verb, stopping at "expect" (which
     starts the next clause); returns the args and the rest of the line. *)
  let rec take_args lineno acc = function
    | [] -> (List.rev acc, [])
    | "expect" :: rest -> (List.rev acc, "expect" :: rest)
    | tok :: rest -> (
      match split_kv tok with
      | Some (k, v) -> take_args lineno ((k, v) :: acc) rest
      | None -> failf lineno "expected key=value or expect, got %S" tok)
  in
  let parse_trigger lineno tok =
    match split_kv tok with
    | Some ("at", v) ->
      let v =
        if String.length v > 2 && String.sub v (String.length v - 2) 2 = "ms"
        then String.sub v 0 (String.length v - 2)
        else failf lineno "at=: expected a duration like 500ms, got %S" v
      in
      At (Simcore.Time_ns.ms (int_of lineno "at" v))
    | Some ("at_lsn", v) -> At_lsn (int_of lineno "at_lsn" v)
    | _ -> failf lineno "expected at=<N>ms or at_lsn=<N>, got %S" tok
  in
  let parse_action lineno verb args =
    let pg_m ctor = ctor (int_arg lineno args "pg") (int_arg lineno args "m") in
    match verb with
    | "noop" -> Noop
    | "crash_node" -> pg_m (fun p m -> Crash_node (p, m))
    | "restart_node" -> pg_m (fun p m -> Restart_node (p, m))
    | "destroy_node" -> pg_m (fun p m -> Destroy_node (p, m))
    | "slow_node" ->
      Slow_node
        ( int_arg lineno args "pg",
          int_arg lineno args "m",
          float_arg lineno args "factor" )
    | "fail_az" -> Fail_az (int_arg lineno args "az")
    | "restore_az" -> Restore_az (int_arg lineno args "az")
    | "partition_az" -> Partition_az (int_arg lineno args "az")
    | "heal_az" -> Heal_az (int_arg lineno args "az")
    | "start_replace" -> pg_m (fun p m -> Start_replacement (p, m))
    | "finish_replace" -> pg_m (fun p m -> Finish_replacement (p, m))
    | "finish_when_caught_up" -> pg_m (fun p m -> Finish_when_caught_up (p, m))
    | "revert_replace" -> pg_m (fun p m -> Revert_replacement (p, m))
    | "grow" -> Grow_volume
    | "scheme_3_of_4" ->
      Change_scheme_3_of_4
        (int_arg lineno args "pg", int_arg lineno args "drop_az")
    | "crash_writer" -> Crash_writer
    | "recover_writer" -> Recover_writer
    | v -> failf lineno "unknown action %S" v
  in
  let parse_expect lineno spec args =
    match split_kv spec with
    | Some ("write_available", v) ->
      Write_available (bool_of lineno "write_available" v)
    | Some ("az_plus_one", v) -> Az_plus_one (bool_of lineno "az_plus_one" v)
    | Some ("writer_open", v) -> Writer_open (bool_of lineno "writer_open" v)
    | None when spec = "commits_progressing" -> Commits_progressing
    | None when spec = "epoch" ->
      Epoch_at_least (int_arg lineno args "pg", int_arg lineno args "min")
    | None when spec = "caught_up" ->
      Caught_up (int_arg lineno args "pg", int_arg lineno args "m")
    | _ -> failf lineno "unknown expectation %S" spec
  in
  (* expect clauses: "expect <spec> [k=v ...]", possibly repeated. *)
  let rec parse_expects lineno acc = function
    | [] -> List.rev acc
    | "expect" :: rest -> (
      match rest with
      | [] -> failf lineno "expect: missing specification"
      | spec :: rest ->
        let args, rest = take_args lineno [] rest in
        parse_expects lineno (parse_expect lineno spec args :: acc) rest)
    | tok :: _ -> failf lineno "expected expect, got %S" tok
  in
  let parse_step lineno = function
    | [] -> failf lineno "step: missing trigger"
    | trig :: rest ->
      let trigger = parse_trigger lineno trig in
      (match rest with
      | [] -> failf lineno "step: missing action"
      | verb :: rest ->
        let args, rest = take_args lineno [] rest in
        let action = parse_action lineno verb args in
        let expect = parse_expects lineno [] rest in
        { trigger; action; expect })
  in
  let name = ref None in
  let n_pgs = ref 1 in
  let layout = ref Quorum.Layout.V6 in
  let replicas = ref 0 in
  let rate = ref 1500. in
  let duration_ms = ref 1500 in
  let quiesce_ms = ref 1500 in
  let recorder_depth = ref Recorder.Rings.default_depth in
  let steps = ref [] in
  let saw_step = ref false in
  let header lineno set =
    if !saw_step then failf lineno "header directive after the first step"
    else set ()
  in
  let directive lineno = function
    | [] -> ()
    | "step" :: rest ->
      saw_step := true;
      steps := parse_step lineno rest :: !steps
    | [ "scenario"; v ] -> header lineno (fun () -> name := Some v)
    | [ "pgs"; v ] -> header lineno (fun () -> n_pgs := int_of lineno "pgs" v)
    | [ "layout"; v ] ->
      header lineno (fun () ->
          layout :=
            match v with
            | "v6" -> Quorum.Layout.V6
            | "tiered" -> Quorum.Layout.Tiered
            | "v3" -> Quorum.Layout.V3
            | _ -> failf lineno "layout: expected v6, tiered or v3, got %S" v)
    | [ "replicas"; v ] ->
      header lineno (fun () -> replicas := int_of lineno "replicas" v)
    | [ "rate"; v ] -> header lineno (fun () -> rate := float_of lineno "rate" v)
    | [ "duration_ms"; v ] ->
      header lineno (fun () -> duration_ms := int_of lineno "duration_ms" v)
    | [ "quiesce_ms"; v ] ->
      header lineno (fun () -> quiesce_ms := int_of lineno "quiesce_ms" v)
    | [ "recorder_depth"; v ] ->
      header lineno (fun () ->
          let d = int_of lineno "recorder_depth" v in
          if d < Recorder.Rings.min_depth || d > Recorder.Rings.max_depth then
            failf lineno "recorder_depth: %d outside %d..%d" d
              Recorder.Rings.min_depth Recorder.Rings.max_depth
          else recorder_depth := d)
    | tok :: _ -> failf lineno "unknown directive %S" tok
  in
  match
    String.split_on_char '\n' src
    |> List.iteri (fun i line ->
           let line =
             match String.index_opt line '#' with
             | Some j -> String.sub line 0 j
             | None -> line
           in
           directive (i + 1) (tokens line))
  with
  | () -> (
    match !name with
    | None -> Error "missing scenario <name> directive"
    | Some name ->
      Ok
        {
          name;
          n_pgs = !n_pgs;
          layout = !layout;
          replicas = !replicas;
          rate = !rate;
          duration_ms = !duration_ms;
          quiesce_ms = !quiesce_ms;
          recorder_depth = !recorder_depth;
          steps = List.rev !steps;
        })
  | exception Parse_error msg -> Error msg
