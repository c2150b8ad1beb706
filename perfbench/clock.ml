(* Monotonic wall clock in seconds, read at nanosecond resolution:
   gettimeofday's microsecond ticks would quantize the per-call layer
   timings of the traced run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
