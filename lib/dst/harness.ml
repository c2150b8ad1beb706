module Event = Dsim.Event
module Churn = Dsim.Churn
module Api = Dsim.Api

let m_runs = Telemetry.Registry.counter "dst/runs"
let m_steps = Telemetry.Registry.counter "dst/steps"
let m_rejected = Telemetry.Registry.counter "dst/rejected"
let m_violations = Telemetry.Registry.counter "dst/violations"
let m_inv_checks = Telemetry.Registry.counter "dst/invariant/checks"
let sp_run = Telemetry.Registry.span "dst/run"

type config = {
  n : int;
  r : int;
  s : int;
  k : int;
  seed : int;
  steps : int;
  measure_every : int;
  profile : Profile.t;
  strategy : (module Placement.Strategy.S) option;
  inject_rate : int;
  break_invariants : string list;
  extra_invariants : Invariant.t list;
}

type violation = {
  invariant : string;
  message : string;
  step_index : int;
  event_line : string;
}

type outcome = {
  seed : int;
  profile : string;
  strategy : string option;
  events : int;
  applied : int;
  rejected : int;
  injected_checks : int;
  injected_fired : int;
  min_worst_available : int;
  final_live : int;
  final_available : int;
  final_lower_bound : int;
  violation : violation option;
}

let invariants (cfg : config) =
  Invariant.builtins
  @ (match cfg.strategy with
    | None -> []
    | Some m -> [ Invariant.of_strategy m ])
  @ List.map
      (fun nm ->
        match Invariant.find_canary nm with
        | Some c -> c
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Harness: unknown canary invariant %S (available: %s)" nm
                 (String.concat ", " Invariant.canary_names)))
      cfg.break_invariants
  @ cfg.extra_invariants

let default_history (cfg : config) =
  Profile.generate cfg.profile ~n:cfg.n ~seed:cfg.seed ~steps:cfg.steps
    ~measure_every:cfg.measure_every

exception Stop of violation

let run ?history (cfg : config) =
  Telemetry.Span.time sp_run @@ fun () ->
  Telemetry.Counter.incr m_runs;
  let history =
    match history with Some h -> h | None -> default_history cfg
  in
  let invs = invariants cfg in
  let body () =
    let eng =
      Churn.create
        ?topology:(Profile.topology cfg.profile ~n:cfg.n)
        ~n:cfg.n ~r:cfg.r ~s:cfg.s ~k:cfg.k ()
    in
    let session = Api.make eng in
    let applied = ref [] in
    let napplied = ref 0 and nrejected = ref 0 in
    let min_worst = ref max_int in
    let violation = ref None in
    (try
       List.iteri
         (fun idx ev ->
           let line = Event.to_line ev in
           match Api.parse_request line with
           | Ok None -> ()
           | Error msg ->
               (* An injected partial line that no longer parses: the
                  session must absorb it as an inline rejection. *)
               ignore (Api.parse_error session (idx + 1) msg);
               incr nrejected;
               Telemetry.Counter.incr m_rejected
           | Ok (Some req) -> (
               (* The movement budget a leave may spend, read before the
                  event mutates the engine. *)
               let pre_load =
                 match req with
                 | Api.Apply (Event.Node_leave nd)
                   when nd >= 0 && nd < cfg.n ->
                     Churn.node_load eng nd
                 | _ -> 0
               in
               match Api.exec session req with
               | Api.Applied step ->
                   incr napplied;
                   Telemetry.Counter.incr m_steps;
                   applied := step.Churn.event :: !applied;
                   let ctx =
                     {
                       Invariant.engine = eng;
                       step = Some step;
                       pre_load;
                       applied = !applied;
                       rescore = lazy (Churn.rescore eng);
                     }
                   in
                   let worst =
                     (Lazy.force ctx.Invariant.rescore).Churn.worst_available
                   in
                   if worst < !min_worst then min_worst := worst;
                   let pulse =
                     match step.Churn.event with
                     | Event.Measure _ -> true
                     | _ -> false
                   in
                   (try
                      List.iter
                        (fun (inv : Invariant.t) ->
                          if inv.Invariant.cadence = Invariant.Step || pulse
                          then begin
                            Telemetry.Counter.incr m_inv_checks;
                            inv.Invariant.check ctx
                          end)
                        invs
                    with Invariant.Violation (name, message) ->
                      raise
                        (Stop
                           {
                             invariant = name;
                             message;
                             step_index = idx;
                             event_line = line;
                           }))
               | Api.Rejected _ ->
                   incr nrejected;
                   Telemetry.Counter.incr m_rejected
               | _ -> ()))
         history
     with Stop v ->
       Telemetry.Counter.incr m_violations;
       violation := Some v);
    {
      seed = cfg.seed;
      profile = cfg.profile.Profile.name;
      strategy =
        Option.map
          (fun (module S : Placement.Strategy.S) -> S.name)
          cfg.strategy;
      events = List.length history;
      applied = !napplied;
      rejected = !nrejected;
      injected_checks = Dsim.Inject.checks ();
      injected_fired = Dsim.Inject.fired ();
      min_worst_available = (if !min_worst = max_int then -1 else !min_worst);
      final_live = Churn.live eng;
      final_available = Churn.available eng;
      final_lower_bound = Churn.lower_bound eng;
      violation = !violation;
    }
  in
  if cfg.inject_rate > 0 then
    Dsim.Inject.with_arming ~seed:cfg.seed ~rate:cfg.inject_rate body
  else Dsim.Inject.without body

let sweep ?pool configs = Engine.Pool.map_opt pool (fun cfg -> run cfg) configs
