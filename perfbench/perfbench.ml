(* One repetition of one workload, in a fresh process so heap and GC state
   start clean.  Prints one JSON line:
   {"correct", "attempted", "failed", "metrics": {name: value}}
   and exits 0 when the run was correct, 1 when it was not, 2 on bad
   arguments.  run.py repeats it and aggregates. *)

let usage =
  Printf.sprintf
    "usage: perfbench.exe --workload NAME --seed N [--trace] [--smoke]\n\
    \  NAME is one of: %s\n\
    \  N is a non-negative integer\n"
    (String.concat " " (List.map fst Workloads.all))

let bad_args msg =
  Printf.eprintf "perfbench: %s\n%s" msg usage;
  exit 2

type args = {
  workload : (string * Workloads.t) option;
  seed : int option;
  traced : bool;
  smoke : bool;
}

let rec parse a = function
  | [] -> a
  | "--workload" :: w :: rest -> (
    match List.assoc_opt w Workloads.all with
    | Some spec -> parse { a with workload = Some (w, spec) } rest
    | None -> bad_args (Printf.sprintf "unknown workload %S" w))
  | "--seed" :: s :: rest -> (
    match int_of_string_opt s with
    | Some n when n >= 0 -> parse { a with seed = Some n } rest
    | Some _ | None -> bad_args (Printf.sprintf "bad seed %S" s))
  | "--trace" :: rest -> parse { a with traced = true } rest
  | "--smoke" :: rest -> parse { a with smoke = true } rest
  | arg :: _ -> bad_args (Printf.sprintf "unexpected argument %S" arg)

let () =
  let a =
    parse
      { workload = None; seed = None; traced = false; smoke = false }
      (List.tl (Array.to_list Sys.argv))
  in
  let (name, spec), seed =
    match (a.workload, a.seed) with
    | Some w, Some s -> (w, s)
    | None, _ -> bad_args "--workload is required"
    | _, None -> bad_args "--seed is required"
  in
  let run () =
    match if a.smoke then Workloads.smoke spec else spec with
    | Workloads.Cluster c -> Cluster_bench.run ~seed ~traced:a.traced c
    | Workloads.Swarm { seeds } -> Swarm_bench.run ~traced:a.traced ~seeds
  in
  let r =
    match run () with
    | r -> r
    | exception Failure msg ->
      Printf.eprintf "perfbench: %s: %s\n" name msg;
      exit 1
  in
  let open Obs.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool r.Cluster_bench.correct);
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) r.metrics));
          ]));
  exit (if r.correct then 0 else 1)
