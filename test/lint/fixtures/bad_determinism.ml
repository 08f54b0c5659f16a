(* Fixture: one use of each identifier family the determinism rule bans. *)
let now () = Unix.gettimeofday ()
let cpu () = Sys.time ()
let roll () = Random.int 6
let digest x = Hashtbl.hash x
let qualified x = Stdlib.Random.float x
let mono () = Monotonic_clock.now ()
