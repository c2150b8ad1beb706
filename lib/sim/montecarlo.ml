type result = {
  trials : int;
  avails : int array;
  mean : float;
  stddev : float;
  min : int;
  max : int;
}

let of_avails avails =
  let floats = Array.map float_of_int avails in
  let lo, hi = Combin.Stats.min_max floats in
  {
    trials = Array.length avails;
    avails;
    mean = Combin.Stats.mean floats;
    stddev = Combin.Stats.stddev floats;
    min = int_of_float lo;
    max = int_of_float hi;
  }

(* Trial counts are Stable (a function of the requested [trials] alone);
   per-trial durations land with the volatile timings. *)
let m_runs = Telemetry.Registry.counter "sim/montecarlo/runs"
let m_trials = Telemetry.Registry.counter "sim/montecarlo/trials"
let m_trial_span = Telemetry.Registry.span "sim/montecarlo/trial"

let run ?pool ~rng ~trials ~placement ~scenario ~semantics () =
  (* Pre-split one RNG per trial (Rng.split_n), so trial i's stream is a
     function of the master seed and i alone: running the trials through a
     pool of any size gives bit-identical avails.  The adversary inside a
     trial stays sequential — Engine pools reject nesting. *)
  Telemetry.Counter.incr m_runs;
  Telemetry.Counter.add m_trials trials;
  let trial_rngs = Combin.Rng.split_n rng trials in
  let one_trial trial_rng =
    Telemetry.Span.time m_trial_span @@ fun () ->
    let layout = placement trial_rng in
    let cluster = Cluster.create layout semantics in
    Scenario.run ~rng:trial_rng cluster scenario
  in
  of_avails (Engine.Pool.map_opt pool one_trial trial_rngs)

let avg_avail_random ?pool ~rng ~trials (p : Placement.Params.t) =
  run ?pool ~rng ~trials
    ~placement:(fun trial_rng -> Placement.Random_placement.place ~rng:trial_rng p)
    ~scenario:(Scenario.Adversarial p.k)
    ~semantics:(Semantics.Threshold p.s) ()

let pp fmt r =
  Format.fprintf fmt "trials=%d mean=%.1f sd=%.1f min=%d max=%d" r.trials
    r.mean r.stddev r.min r.max
