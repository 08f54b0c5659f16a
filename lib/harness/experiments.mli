(** Experiments E1–E10 and the ablations A1–A2: one per figure or
    quantitative claim of the paper (see DESIGN.md §4 for the index and
    EXPERIMENTS.md for recorded outcomes).  Each run builds its table in the
    paper's shape.  A run takes only a seed; its sizes are fixed, so a
    table is a function of the seed.  The durability verdicts of E4, E5 and
    E9 (lost acknowledged commits, and E9's wrong replica reads) come from
    the workload's one oracle, {!Workload.Txn_gen.audit}, the same one the
    vopr quiesce audit replays, and are the tables' required rows
    ({!Report.require}). *)

(** E2 — Figure 2: the storage-node pipeline under a network that drops 5%
    of 400 transactions' messages; gossip repairs every hole and all
    background stages make progress.  Two blocks are corrupted after the
    load, and the scrubber must find and repair both. *)
module E2 : sig
  type t = {
    records_written : int;
    acks_processed : int;
    gossip_filled : int;
    final_scl_lag : int;  (** Max SCL gap across segments after settle. *)
    coalesced_versions : int;
    backups : int;
    hot_log_gced : int;
    scrub_found : int;  (** Corrupt blocks reported, summed over scrub rounds. *)
    corruptions_injected : int;
    scrub_repaired : int;
        (** Injected blocks whose checksum verifies at the end of the run. *)
  }

  val run : seed:int -> t
end

type experiment = {
  id : string;  (** [e1]..[e10], [a1], [a2]. *)
  seed_offset : int;
      (** Added to the seed when every experiment runs from one seed
          ([exp all]).  E3 reproduces the figure's fixed scenario and
          ignores its seed. *)
  run : seed:int -> Report.t;
}

val all : experiment list
(** Every experiment, in the order [exp all] prints them. *)
