(* The four named workloads.  Each isolates one path of the system; README.md
   records why each was chosen and what it should and should not move. *)

type cluster = {
  n_pgs : int;
  replicas : int;
  keys : int;  (** Preloaded during set-up; every op draws from these. *)
  n_blocks : int;
  cache_blocks : int;  (** Writer buffer cache; replicas keep their default. *)
  zipf_theta : float;
  ops_per_txn : int;
  writes_per_txn : int;  (** Issued first; the remaining ops are reads. *)
  mtr_fraction : float;
      (** Share of multi-write txns that use one multi-block MTR. *)
  txn_rate : float;  (** Poisson arrivals per simulated second. *)
  replica_get_rate : float;  (** Poisson [Replica.get]s per second, each. *)
  txns : int;  (** Expected arrivals: the window is [txns / txn_rate] long. *)
}

type t =
  | Cluster of cluster
  | Swarm of { seeds : int }
      (** Curated scenario plus nemesis schedule per seed, as the vopr swarm
          sweeps them. *)

let commit_long =
  {
    n_pgs = 2;
    replicas = 0;
    keys = 10_000;
    n_blocks = 256;
    cache_blocks = 256;
    zipf_theta = 0.9;
    ops_per_txn = 4;
    writes_per_txn = 2;
    mtr_fraction = 0.1;
    txn_rate = 2000.;
    replica_get_rate = 0.;
    txns = 12_000;
  }

let all =
  [
    ("commit_long", Cluster commit_long);
    ( "read_replica",
      Cluster
        {
          n_pgs = 2;
          replicas = 2;
          keys = 50_000;
          n_blocks = 4096;
          cache_blocks = 128;
          zipf_theta = 0.6;
          ops_per_txn = 4;
          writes_per_txn = 1;
          mtr_fraction = 0.;
          txn_rate = 1000.;
          replica_get_rate = 2000.;
          txns = 3_000;
        } );
    ( "pg_fanout",
      Cluster
        {
          commit_long with
          n_pgs = 32;
          keys = 20_000;
          n_blocks = 2048;
          cache_blocks = 2048;
          txns = 8_000;
        } );
    ("vopr_swarm", Swarm { seeds = 8 });
  ]

(* Smoke scale: same shapes and key spaces, a twentieth of the window, one
   swarm seed — exercises every code path in seconds. *)
let smoke = function
  | Cluster c -> Cluster { c with txns = max 100 (c.txns / 20) }
  | Swarm _ -> Swarm { seeds = 1 }
