(* The blocking campaign entry points: one driver loop over a
   reentrant step machine — a {!Campaign}, or [Fidelity]'s rung
   scheduler. The machine owns every decision (draws, refits,
   selection, replay verification and completion-order checks,
   bookkeeping, telemetry); the driver owns only how verdicts are
   produced (inline objective call, retry policy, worker domains) and
   the simulated clock that decides completion order. A [Sync]
   campaign runs through the same loop: it answers [Wait] while its
   one suggestion is pending, so the in-flight set never holds more
   than that suggestion. *)

type prior = Campaign.prior = {
  sources : (Surrogate.t * float) array;
  decay : int -> float;
  gate : Gate.options option;
}

let constant_decay = Campaign.constant_decay
let prior_of = Campaign.prior_of

type options = Campaign.options = {
  n_init : int;
  surrogate : Surrogate.options;
  strategy : Strategy.t;
  prior : prior option;
  batch_size : int;
  early_stop : int option;
}

let default_options = Campaign.default_options

type result = Campaign.result = {
  history : (Param.Config.t * float) array;
  best_config : Param.Config.t;
  best_value : float;
  trajectory : float array;
  final_surrogate : Surrogate.t option;
  stopped_early : bool;
  failures : (Param.Config.t * Resilience.Outcome.t) array;
  n_attempts : int;
  retry_cost : float;
}

type run_error = Campaign.run_error = {
  error_failures : (Param.Config.t * Resilience.Outcome.t) array;
  error_attempts : int;
}

let default_duration _config (v : Resilience.Evaluator.verdict) =
  let base =
    match v.Resilience.Evaluator.outcome with
    | Resilience.Outcome.Value y when Float.is_finite y && y > 0. -> y
    | _ -> 1.
  in
  base +. v.Resilience.Evaluator.retry_cost

(* A finished evaluation, with the [Attempt] events to emit at
   completion and its time (0 for a recorded verdict). *)
type evaluated = {
  verdict : Resilience.Evaluator.verdict;
  attempts_log : Telemetry.Event.t list;
  eval_ms : float;
}

(* One in-flight evaluation: with a pool the lazy value awaits a
   future already running on a worker domain. *)
type slot = {
  sug : Campaign.suggestion;
  submitted : float;  (* simulated submission time *)
  run : evaluated Lazy.t;
}

(* Telemetry sinks are only ever touched from the driving domain: a
   worker's retry attempts are logged and emitted at completion. *)
let drive ~telemetry ~workers ~duration ~evaluate ~suggest ~report ~result =
  let traced = Telemetry.Trace.enabled telemetry in
  let live s () =
    let attempts = ref [] in
    let probe =
      if traced then
        Some
          (fun ~attempt ~backoff outcome ->
            let kind = Resilience.Outcome.kind outcome in
            attempts := Telemetry.Event.Attempt { attempt; kind; backoff } :: !attempts)
      else None
    in
    let t0 = Telemetry.Trace.now telemetry in
    let verdict = evaluate ?probe s in
    let eval_ms = (Telemetry.Trace.now telemetry -. t0) *. 1000. in
    { verdict; attempts_log = List.rev !attempts; eval_ms }
  in
  let in_flight = ref [] in
  let rec fill at =
    match suggest ~at with
    | Campaign.Suggest s ->
        let run =
          match (s.Campaign.recorded, workers) with
          | Some verdict, _ -> Lazy.from_val { verdict; attempts_log = []; eval_ms = 0. }
          | None, Some w ->
              let fut = Parallel.Pool.async w (live s) in
              lazy (Parallel.Pool.await fut)
          | None, None -> lazy (live s ())
        in
        in_flight := { sug = s; submitted = at; run } :: !in_flight;
        fill at
    | Campaign.Wait | Campaign.Finished -> ()
  in
  let finish_time slot =
    let d = duration slot.sug (lazy (Lazy.force slot.run).verdict) in
    if (not (Float.is_finite d)) || d < 0. then
      invalid_arg "Tuner.run_with_policy: duration must be finite and non-negative";
    slot.submitted +. d
  in
  fill 0.;
  while !in_flight <> [] do
    let timed = List.rev_map (fun slot -> (slot, finish_time slot)) !in_flight in
    let slot, at =
      List.fold_left
        (fun ((bs, bt) as acc) ((s, t) as cand) ->
          if t < bt || (t = bt && s.sug.Campaign.id < bs.sug.Campaign.id) then cand else acc)
        (List.hd timed) (List.tl timed)
    in
    in_flight := List.filter (fun s -> s.sug.Campaign.id <> slot.sug.Campaign.id) !in_flight;
    let e = Lazy.force slot.run in
    List.iter (Telemetry.Trace.emit telemetry) e.attempts_log;
    report ~at ~eval_ms:e.eval_ms ~id:slot.sug.Campaign.id e.verdict;
    fill at
  done;
  result ()

(* A [Sync] campaign has one suggestion out at a time, evaluated inline
   on the calling domain even with a pool (the pool only ranks), and
   no clock; [Async] evaluates on the pool and completes on the
   simulated clock. *)
let drive_campaign ~telemetry ~pool ~duration ~evaluate c =
  let workers, duration =
    match Campaign.mode c with
    | Campaign.Sync -> (None, fun _ _ -> 0.)
    | Campaign.Async _ -> (pool, fun s v -> duration s.Campaign.config (Lazy.force v))
  in
  drive ~telemetry ~workers ~duration ~evaluate
    ~suggest:(fun ~at -> Campaign.suggest ~at c)
    ~report:(fun ~at ~eval_ms ~id v -> Campaign.report ~at ~eval_ms c ~id v)
    ~result:(fun () -> Campaign.result c)

let run ?(telemetry = Telemetry.Trace.disabled) ?options ?warm_start ?candidates ?on_evaluation
    ?on_gate ?pool ~rng ~space ~objective ~budget () =
  let on_outcome =
    Option.map
      (fun f i c v ->
        match v.Resilience.Evaluator.outcome with
        | Resilience.Outcome.Value y -> f i c y
        | _ -> ())
      on_evaluation
  in
  let campaign =
    Campaign.create ~telemetry ?options ?warm_start ?candidates ?on_outcome ?on_gate ?pool
      ~mode:Campaign.Sync ~rng ~space ~budget ()
  in
  (* The inline evaluator: no retry policy, so no [Attempt] events. *)
  let evaluate ?probe:_ (s : Campaign.suggestion) =
    { Resilience.Evaluator.outcome = Resilience.Outcome.Value (objective s.Campaign.config);
      attempts = 1; retry_cost = 0. }
  in
  match drive_campaign ~telemetry ~pool ~duration:default_duration ~evaluate campaign with
  | Stdlib.Ok r -> r
  | Stdlib.Error _ -> assert false (* a total objective cannot fail *)

let run_with_policy ?(telemetry = Telemetry.Trace.disabled) ?options ?(mode = Campaign.Sync)
    ?(policy = Resilience.Policy.default) ?warm_start ?candidates ?on_outcome ?on_gate
    ?recorded_gates ?replay ?pool ?(duration = default_duration) ~rng ~space ~objective ~budget
    () =
  Resilience.Policy.validate policy;
  let campaign =
    Campaign.create ~telemetry ?options ?warm_start ?candidates ?on_outcome ?on_gate
      ?recorded_gates ?replay ?pool ~mode ~rng ~space ~budget ()
  in
  let evaluate ?probe (s : Campaign.suggestion) =
    Resilience.Evaluator.evaluate ?probe ~policy ~objective s.Campaign.config
  in
  drive_campaign ~telemetry ~pool ~duration ~evaluate campaign

let resume ?telemetry ?options ?mode ?(policy = Resilience.Policy.default) ?warm_start
    ?candidates ?on_outcome ?on_gate ?pool ?duration ~log ~objective ~budget () =
  Resilience.Policy.validate policy;
  let replay = Campaign.replay_of_log ~policy log in
  if Array.length replay > budget then
    invalid_arg "Tuner.resume: budget is smaller than the recorded evaluation count";
  run_with_policy ?telemetry ?options ?mode ~policy ?warm_start ?candidates ?on_outcome ?on_gate
    ~recorded_gates:log.Dataset.Runlog.gates ~replay ?pool ?duration
    ~rng:(Prng.Rng.create log.Dataset.Runlog.seed) ~space:log.Dataset.Runlog.space ~objective
    ~budget ()
