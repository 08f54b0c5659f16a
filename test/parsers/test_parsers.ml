(* Robustness of the text parsers that read files back in: a scenario
   table, a repro artifact, a BENCH report and plain JSON.  Each [of_string]
   must answer [Ok] or [Error] and never raise, on arbitrary strings and
   on single-byte mutations and truncations of a valid serialized value. *)

open Recorder

let read_file path = In_channel.with_open_bin path In_channel.input_all

let artifact_text =
  let ring node role events =
    { Rings.node; role; depth = 16; evicted = 0; events }
  in
  let snapshot =
    {
      Rings.nodes =
        [
          ring 0 Event.Writer
            [
              ( 10,
                Event.Send
                  {
                    kind = Event.Write_batch;
                    peer = 1;
                    pg = 0;
                    lsn_lo = 5;
                    lsn_hi = 5;
                  } );
              ( 20,
                Event.Drop
                  {
                    kind = Event.Write_batch;
                    peer = 1;
                    pg = 0;
                    lsn_lo = 9;
                    lsn_hi = 11;
                    cause = Event.Partitioned;
                  } );
            ];
          ring 1 Event.Storage
            [
              ( 12,
                Event.Receive
                  {
                    kind = Event.Write_batch;
                    peer = 0;
                    pg = 0;
                    lsn_lo = 5;
                    lsn_hi = 5;
                  } );
              (13, Event.Scl_advance { pg = 0; scl = 9; stored = 5 });
            ];
        ];
    }
  in
  let net =
    {
      Artifact.sent = 4;
      delivered = 3;
      dropped_down = 0;
      dropped_blocked = 0;
      dropped_partition = 1;
      dropped_random = 0;
      links =
        [
          {
            Artifact.src = 0;
            dst = 1;
            l_sent = 4;
            l_delivered = 3;
            l_down = 0;
            l_blocked = 0;
            l_partition = 1;
            l_random = 0;
          };
        ];
    }
  in
  Artifact.to_string (Artifact.make ~snapshot ~net ())

let json_text =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("s", String "tab\there \"quoted\" \\ \x01 caf\xc3\xa9");
         ("n", Int (-42));
         ("f", Float 3.25e-7);
         ("l", List [ Bool true; Null; List []; Obj [] ]);
       ])

(* (name, parser run for its outcome only, a valid serialized value) *)
let parsers : (string * (string -> (unit, string) result) * string) list =
  let ok parse s = Result.map ignore (parse s) in
  [
    ( "Scenario",
      ok Vopr.Scenario.of_string,
      (* The longest curated table uses the most directives. *)
      List.fold_left
        (fun acc sc ->
          let txt = Vopr.Scenario.to_string sc in
          if String.length txt > String.length acc then txt else acc)
        "" Vopr.Curated.all );
    ("Artifact", ok Artifact.of_string, artifact_text);
    ( "Bench_report",
      ok Perf.Bench_report.of_string,
      read_file "../perf/fixtures/BENCH_golden.json" );
    ("Json", ok Obs.Json.of_string, json_text);
  ]

let answers parse s =
  match parse s with
  | Ok () | Error _ -> true
  | exception e ->
    QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) s

let test_samples_parse () =
  List.iter
    (fun (name, parse, sample) ->
      match parse sample with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: valid sample rejected: %s" name e)
    parsers

(* Arbitrary bytes, and strings drawn from the sample's own characters so
   the parser gets past its first token more often. *)
let prop_arbitrary (name, parse, sample) =
  let alphabet = QCheck.Gen.oneofl (List.of_seq (String.to_seq sample)) in
  QCheck.Test.make ~count:300
    ~name:(name ^ ".of_string answers on arbitrary strings")
    QCheck.(
      make ~print:Print.string
        Gen.(
          oneof
            [
              string_size ~gen:char (int_bound 64);
              string_size ~gen:alphabet (int_bound 256);
            ]))
    (answers parse)

type edit =
  | Replace of int * char
  | Delete of int
  | Insert of int * char
  | Cut of int  (** keep the first [i] bytes *)

let apply s = function
  | Replace (i, c) -> String.mapi (fun j x -> if j = i then c else x) s
  | Delete i -> String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)
  | Insert (i, c) ->
    String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i)
  | Cut i -> String.sub s 0 i

let prop_mutations (name, parse, sample) =
  let n = String.length sample in
  let edit =
    QCheck.Gen.(
      int_bound (n - 1) >>= fun i ->
      char >>= fun c ->
      oneofl [ Replace (i, c); Delete i; Insert (i, c); Cut i ])
  in
  QCheck.Test.make ~count:1000
    ~name:(name ^ ".of_string answers on one-byte edits and truncations")
    (QCheck.make ~print:(fun e -> Printf.sprintf "%S" (apply sample e)) edit)
    (fun e -> answers parse (apply sample e))

(* Exhaustive over positions: every truncation, every deletion, and every
   replacement by a byte likely to change the parse (a digit, a sign, a
   quote, a bracket, whitespace, a non-ASCII byte). *)
let test_every_edit () =
  let bytes =
    [ '0'; '9'; '-'; '.'; 'e'; '"'; '\\'; '{'; '}'; '['; ']'; ','; ':';
      ' '; '\n'; 'x'; '\xff' ]
  in
  List.iter
    (fun (name, parse, sample) ->
      let check e =
        let s = apply sample e in
        match parse s with
        | Ok () | Error _ -> ()
        | exception ex ->
          Alcotest.failf "%s.of_string raised %s on %S" name
            (Printexc.to_string ex) s
      in
      for i = 0 to String.length sample - 1 do
        check (Cut i);
        check (Delete i);
        List.iter (fun c -> check (Replace (i, c)); check (Insert (i, c))) bytes
      done)
    parsers

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "parsers"
    [
      ( "of_string",
        Alcotest.test_case "valid samples parse" `Quick test_samples_parse
        :: Alcotest.test_case "every one-byte edit" `Quick test_every_edit
        :: List.concat_map
             (fun p -> [ qc (prop_arbitrary p); qc (prop_mutations p) ])
             parsers );
    ]
