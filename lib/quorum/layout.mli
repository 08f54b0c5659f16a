(** Canonical protection-group layouts.

    Builders for the member rosters and schemes the paper discusses:
    Aurora's production 6-copies-across-3-AZs design, the §4.2 tiered
    (3 full + 3 tail) variant, and the strawman 2/3 design Figure 1 uses to
    motivate six copies.  {!membership} is the one map from a layout
    ({!t}) to its roster and scheme: clusters are provisioned from it and
    the availability experiments model it. *)

val aurora_v6 : ?first_id:int -> unit -> Membership.member list
(** Six members, two per AZ (AZ1: A,B; AZ2: C,D; AZ3: E,F), all {!Membership.Full}. *)

val aurora_tiered : ?first_id:int -> unit -> Membership.member list
(** Six members, two per AZ, one full + one tail in each AZ (§4.2). *)

val three_copies : ?first_id:int -> unit -> Membership.member list
(** Three members, one per AZ — the 2/3 strawman of Figure 1. *)

val four_copies_two_az : ?first_id:int -> unit -> Membership.member list
(** Four members over two AZs — the 3/4 degraded mode of §4.1 used after
    extended loss of an AZ. *)

val scheme_4_of_6 : Membership.scheme
(** Plain write 4/6, read 3/6. *)

val scheme_2_of_3 : Membership.scheme
(** Plain write 2/3, read 2/3. *)

val scheme_3_of_4 : Membership.scheme
(** Plain write 3/4, read 2/4. *)

val scheme_tiered : Membership.scheme
(** §4.2: write [4/6 OR 3/3 fulls], read [3/6 AND 1/3 fulls]. *)

type t = V6 | Tiered | V3
(** A protection-group design: Aurora's six full copies (4/6 write, 3/6
    read), the §4.2 full/tail mix, or the Figure 1 2/3 strawman. *)

val membership : t -> Membership.t
(** The layout's group at epoch 1: {!aurora_v6} under {!scheme_4_of_6},
    {!aurora_tiered} under {!scheme_tiered}, {!three_copies} under
    {!scheme_2_of_3}.  Its {!Membership.members} are the roster in id
    order and its {!Membership.rule} the quorum rule. *)

val members_in_az : Membership.member list -> Az.t -> Member_id.Set.t
(** Ids of roster members placed in the given AZ (the correlated-failure
    unit for availability experiments). *)
