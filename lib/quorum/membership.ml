type segment_kind = Full | Tail

type member = { id : Member_id.t; az : Az.t; kind : segment_kind }

type scheme =
  | Plain of { write_threshold : int; read_threshold : int }
  | Tiered of { mixed_write : int; mixed_read : int }

type pending = { suspect : Member_id.t; replacement : Member_id.t }

type t = {
  epoch : Epoch.t;
  roster : member Member_id.Map.t; (* every involved member, incl. pending *)
  base : Member_id.Set.t; (* members not part of any pending pair *)
  pendings : pending list;
  scheme : scheme;
  rule : Quorum_set.Rule.t; (* derived and proved by [make] *)
}

let epoch t = t.epoch
let scheme t = t.scheme
let pendings t = t.pendings
let members t = List.map snd (Member_id.Map.bindings t.roster)
let member_ids t = Member_id.Map.fold (fun id _ s -> Member_id.Set.add id s) t.roster Member_id.Set.empty
let find_member t id = Member_id.Map.find_opt id t.roster
let is_steady t = t.pendings = []

(* All candidate final member sets: the base plus one choice (suspect or
   replacement) per pending pair — 2^|pendings| variants. *)
let variants_of ~base pendings =
  List.fold_left
    (fun acc { suspect; replacement } ->
      List.concat_map
        (fun set ->
          [ Member_id.Set.add suspect set; Member_id.Set.add replacement set ])
        acc)
    [ base ] pendings

let variants t = variants_of ~base:t.base t.pendings

let atom_for ~scheme ~roster ~read set =
  let members_list = Member_id.Set.elements set in
  match scheme with
  | Plain { write_threshold; read_threshold } ->
    Quorum_set.k_of (if read then read_threshold else write_threshold) members_list
  | Tiered { mixed_write; mixed_read } ->
    let fulls =
      List.filter
        (fun id ->
          match Member_id.Map.find_opt id roster with
          | Some m -> m.kind = Full
          | None -> false)
        members_list
    in
    if read then
      (* 3/6 of any segment AND 1/3 of full segments *)
      Quorum_set.all
        [ Quorum_set.k_of mixed_read members_list; Quorum_set.k_of 1 fulls ]
    else
      (* 4/6 of any segment OR 3/3 of full segments *)
      Quorum_set.any
        [
          Quorum_set.k_of mixed_write members_list;
          Quorum_set.k_of (List.length fulls) fulls;
        ]

(* The only place a [t] is built: derive the composite rule for the state
   and prove both §2.1 obligations, once per transition.  [rule] then just
   reads the field, and no transition can carry a stale rule forward.
   @raise Invalid_argument if the rule is unsafe. *)
let make ~epoch ~roster ~base ~pendings ~scheme =
  let vs = variants_of ~base pendings in
  let atoms ~read = List.map (atom_for ~scheme ~roster ~read) vs in
  let rule =
    Quorum_set.Rule.make_exn
      ~read:(Quorum_set.any (atoms ~read:true))
      ~write:(Quorum_set.all (atoms ~read:false))
  in
  { epoch; roster; base; pendings; scheme; rule }

let rule t = t.rule

let validate ~epoch ~roster ~base ~pendings ~scheme =
  match make ~epoch ~roster ~base ~pendings ~scheme with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg

let form ~epoch ~scheme member_list =
  let roster =
    List.fold_left
      (fun acc m ->
        if Member_id.Map.mem m.id acc then
          invalid_arg "Membership.create: duplicate member id"
        else Member_id.Map.add m.id m acc)
      Member_id.Map.empty member_list
  in
  let base =
    Member_id.Map.fold (fun id _ s -> Member_id.Set.add id s) roster
      Member_id.Set.empty
  in
  make ~epoch ~roster ~base ~pendings:[] ~scheme

let create ~scheme member_list = form ~epoch:Epoch.initial ~scheme member_list

let begin_change t ~suspect ~replacement =
  match Member_id.Map.find_opt suspect t.roster with
  | None -> Error "suspect is not a member of this group"
  | Some suspect_member ->
    if List.exists (fun p -> Member_id.equal p.suspect suspect) t.pendings
    then Error "suspect is already under replacement"
    else if
      List.exists
        (fun p -> Member_id.equal p.replacement suspect)
        t.pendings
    then Error "cannot replace an in-flight replacement"
    else if Member_id.Map.mem replacement.id t.roster then
      Error "replacement id already in use"
    else if replacement.kind <> suspect_member.kind then
      Error "replacement kind must match the suspect's (full vs tail)"
    else
      validate ~epoch:(Epoch.next t.epoch)
        ~roster:(Member_id.Map.add replacement.id replacement t.roster)
        ~base:(Member_id.Set.remove suspect t.base)
        ~pendings:(t.pendings @ [ { suspect; replacement = replacement.id } ])
        ~scheme:t.scheme

let replacement_of t ~suspect =
  List.find_map
    (fun p -> if Member_id.equal p.suspect suspect then Some p.replacement else None)
    t.pendings

let resolve t ~suspect ~keep_replacement =
  match replacement_of t ~suspect with
  | None -> Error "no pending change for this suspect"
  | Some replacement ->
    let keep, drop =
      if keep_replacement then (replacement, suspect) else (suspect, replacement)
    in
    validate ~epoch:(Epoch.next t.epoch)
      ~roster:(Member_id.Map.remove drop t.roster)
      ~base:(Member_id.Set.add keep t.base)
      ~pendings:
        (List.filter
           (fun p -> not (Member_id.equal p.suspect suspect))
           t.pendings)
      ~scheme:t.scheme

let commit_change t ~suspect = resolve t ~suspect ~keep_replacement:true
let revert_change t ~suspect = resolve t ~suspect ~keep_replacement:false

let change_scheme t ~scheme member_list =
  if not (is_steady t) then
    Error "cannot change scheme while a membership change is pending"
  else Ok (form ~epoch:(Epoch.next t.epoch) ~scheme member_list)

let survives_az q members ~up ~plus_one =
  let azs = List.sort_uniq Az.compare (List.map (fun m -> m.az) members) in
  List.for_all
    (fun az ->
      let survivors =
        List.fold_left
          (fun acc m ->
            if Az.equal m.az az || not (Member_id.Set.mem m.id up) then acc
            else Member_id.Set.add m.id acc)
          Member_id.Set.empty members
      in
      if plus_one then
        (not (Member_id.Set.is_empty survivors))
        && Member_id.Set.for_all
             (fun x -> Quorum_set.satisfied q (Member_id.Set.remove x survivors))
             survivors
      else Quorum_set.satisfied q survivors)
    azs

let pp fmt t =
  Format.fprintf fmt "epoch %a, members %a%s" Epoch.pp t.epoch Member_id.pp_set
    (member_ids t)
    (match t.pendings with
    | [] -> ""
    | ps ->
      " pending:"
      ^ String.concat ","
          (List.map
             (fun p ->
               Format.asprintf " %a->%a" Member_id.pp p.suspect Member_id.pp
                 p.replacement)
             ps))
