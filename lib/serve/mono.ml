(* Kept only as an alias for lockbench/tracer.ml; new code reads
   {!Lockdoc_obs.Obs.Clock.wall}, the same CLOCK_MONOTONIC seconds. *)
let now = Lockdoc_obs.Obs.Clock.wall
