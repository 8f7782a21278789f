(* The blocking campaign entry points: one driver loop over the
   reentrant {!Campaign} state machine. The machine owns every
   campaign decision (init draws, gated refits, selection, replay
   verification, bookkeeping, telemetry); the driver owns only how
   verdicts are produced (inline objective call, retry policy, worker
   domains) and, under [Async k], the simulated clock that decides
   completion order. A [Sync] campaign runs through the same loop: it
   answers [Wait] while its one suggestion is pending, so the in-flight
   set never holds more than that suggestion. *)

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

(* A finished evaluation: the verdict, the retry attempts to emit as
   telemetry at completion, whether it came from the replay record,
   and the evaluation time reported in the async [Eval] event. *)
type evaluated = {
  verdict : Resilience.Evaluator.verdict;
  attempts_log : (int * string * float) list;
  replayed : bool;
  eval_ms : float option;
}

(* One in-flight evaluation. The thunk is memoized: with a pool it
   awaits a future (the work already runs on a worker domain), without
   one it evaluates inline at first demand. *)
type slot = {
  sug : Campaign.suggestion;
  submitted : float;  (* simulated submission time *)
  run : unit -> evaluated;
  mutable memo : evaluated option;
}

let force slot =
  match slot.memo with
  | Some e -> e
  | None ->
      let e = slot.run () in
      slot.memo <- Some e;
      e

let attempt_event (attempt, kind, backoff) =
  Telemetry.Event.Attempt { attempt; kind; backoff }

(* Drive [campaign] to completion. [evaluate ?probe config] produces a
   live verdict; [probe] observes each retry attempt. [replay] holds
   the recorded verdicts a resumed campaign retraces. *)
let drive ~telemetry ~workers ~duration ~replay ~evaluate campaign =
  let mode = Campaign.mode campaign in
  let divergence () = failwith Campaign.divergence_msg in
  (* Replay verdicts are keyed by configuration under [Async] (a
     configuration is never submitted twice, so the key is unique) and
     completion processing checks the recorded order. Under [Sync] the
     one pending suggestion completes at index [n_evaluated], so it is
     checked against the record before the objective could run. *)
  let recorded =
    match mode with
    | Campaign.Async _ ->
        let by_config = Param.Config.Table.create (Array.length replay) in
        Array.iter (fun (c, v) -> Param.Config.Table.replace by_config c v) replay;
        fun (s : Campaign.suggestion) -> Param.Config.Table.find_opt by_config s.Campaign.config
    | Campaign.Sync ->
        fun s ->
          let idx = Campaign.n_evaluated campaign in
          if idx >= Array.length replay then None
          else begin
            let c, v = replay.(idx) in
            if not (Param.Config.equal c s.Campaign.config) then divergence ();
            Some v
          end
  in
  let traced = Telemetry.Trace.enabled telemetry in
  (* Only [Async] times evaluations for its [Eval] events; [Sync] lets
     the machine time them. *)
  let clocked = match mode with Campaign.Sync -> false | Campaign.Async _ -> true in
  (* The attempt log is captured inside the evaluation and emitted at
     completion, so telemetry sinks are only ever touched from the
     driving domain. *)
  let live config () =
    let attempts = ref [] in
    let probe =
      if traced then
        Some
          (fun ~attempt ~backoff outcome ->
            attempts := (attempt, Resilience.Outcome.kind outcome, backoff) :: !attempts)
      else None
    in
    let t0 = if clocked then Telemetry.Trace.now telemetry else 0. in
    let verdict = evaluate ?probe config in
    let eval_ms =
      if clocked then Some ((Telemetry.Trace.now telemetry -. t0) *. 1000.) else None
    in
    { verdict; attempts_log = List.rev !attempts; replayed = false; eval_ms }
  in
  let in_flight = ref [] in
  (* Keep the machine's in-flight set full, turning each suggestion
     into a slot whose evaluation starts immediately on a worker domain
     when [Async] runs with a pool; [Sync] evaluates inline. *)
  let rec fill at =
    match Campaign.suggest ~at campaign with
    | Campaign.Suggest s ->
        let run =
          match (recorded s, mode, workers) with
          | Some verdict, _, _ ->
              let eval_ms = if clocked then Some 0. else None in
              fun () -> { verdict; attempts_log = []; replayed = true; eval_ms }
          | None, Campaign.Async _, Some w ->
              let fut = Parallel.Pool.async w (live s.Campaign.config) in
              fun () -> Parallel.Pool.await fut
          | None, _, _ -> live s.Campaign.config
        in
        in_flight := { sug = s; submitted = at; run; memo = None } :: !in_flight;
        fill at
    | Campaign.Wait | Campaign.Finished -> ()
  in
  (* Completion order is decided by the simulated clock, so every
     pending duration must be known before the earliest completion can
     be identified: force all in-flight verdicts (with a pool they are
     already being computed on worker domains). A [Sync] campaign has
     one slot and no clock. *)
  let finish_time slot =
    match mode with
    | Campaign.Sync -> slot.submitted
    | Campaign.Async _ ->
        let d = duration slot.sug.Campaign.config (force slot).verdict in
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
    let e = force slot in
    let idx = Campaign.n_evaluated campaign in
    if idx < Array.length replay then begin
      if not (Param.Config.equal (fst replay.(idx)) slot.sug.Campaign.config) then divergence ()
    end
    else if e.replayed then
      (* A recorded verdict completing beyond the recorded prefix
         means the completion order no longer matches the log. *)
      divergence ();
    if traced then
      List.iter (fun a -> Telemetry.Trace.emit telemetry (attempt_event a)) e.attempts_log;
    Campaign.report ~at ?eval_ms:e.eval_ms campaign ~id:slot.sug.Campaign.id e.verdict;
    fill at
  done;
  Campaign.result campaign

let run ?(telemetry = Telemetry.Trace.disabled) ?options ?warm_start ?candidates ?on_evaluation
    ?on_gate ?pool ?schedule ~rng ~space ~objective ~budget () =
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
      ?schedule ~mode:Campaign.Sync ~rng ~space ~budget ()
  in
  (* The inline evaluator: no retry policy, so no [Attempt] events. *)
  let evaluate ?probe:_ c =
    { Resilience.Evaluator.outcome = Resilience.Outcome.Value (objective c); attempts = 1;
      retry_cost = 0. }
  in
  match
    drive ~telemetry ~workers:pool ~duration:default_duration ~replay:[||] ~evaluate campaign
  with
  | Stdlib.Ok r -> r
  | Stdlib.Error _ -> assert false (* a total objective cannot fail *)

let run_with_policy ?(telemetry = Telemetry.Trace.disabled) ?options ?(mode = Campaign.Sync)
    ?(policy = Resilience.Policy.default) ?warm_start ?candidates ?on_outcome ?on_gate
    ?recorded_gates ?(replay = [||]) ?pool ?schedule ?(duration = default_duration) ~rng ~space
    ~objective ~budget () =
  let campaign =
    Campaign.create ~telemetry ?options ?warm_start ?candidates ?on_outcome ?on_gate
      ?recorded_gates ~replay ?pool ?schedule ~mode ~rng ~space ~budget ()
  in
  let evaluate ?probe c = Resilience.Evaluator.evaluate ?probe ~policy ~objective c in
  drive ~telemetry ~workers:pool ~duration ~replay ~evaluate campaign

let resume ?telemetry ?options ?mode ?(policy = Resilience.Policy.default) ?warm_start
    ?candidates ?on_outcome ?on_gate ?pool ?schedule ?duration ~log ~objective ~budget () =
  let replay = Campaign.replay_of_log ~policy log in
  if Array.length replay > budget then
    invalid_arg "Tuner.resume: budget is smaller than the recorded evaluation count";
  run_with_policy ?telemetry ?options ?mode ~policy ?warm_start ?candidates ?on_outcome ?on_gate
    ~recorded_gates:log.Dataset.Runlog.gates ~replay ?pool ?schedule ?duration
    ~rng:(Prng.Rng.create log.Dataset.Runlog.seed) ~space:log.Dataset.Runlog.space ~objective
    ~budget ()
