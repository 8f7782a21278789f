type plan = {
  costs : float array;
  eta : float;
  cohort : int;
  brackets : int;
  low_weight : float;
  cost_budget : float option;
}

let default_plan =
  {
    costs = [| 0.25; 0.5; 1. |];
    eta = 3.;
    cohort = 18;
    brackets = 4;
    low_weight = 0.25;
    cost_budget = None;
  }

let validate_plan p =
  let n = Array.length p.costs in
  if n = 0 then invalid_arg "Fidelity.run: plan.costs must be non-empty";
  Array.iter
    (fun c ->
      if not (Float.is_finite c) || c <= 0. then
        invalid_arg "Fidelity.run: plan costs must be finite and positive")
    p.costs;
  for i = 1 to n - 1 do
    if p.costs.(i) <= p.costs.(i - 1) then
      invalid_arg "Fidelity.run: plan costs must be strictly increasing"
  done;
  if p.costs.(n - 1) <> 1. then
    invalid_arg "Fidelity.run: the top rung's cost must be 1 (full fidelity)";
  if not (Float.is_finite p.eta) || p.eta <= 1. then
    invalid_arg "Fidelity.run: eta must be finite and greater than 1";
  if p.cohort < 1 then invalid_arg "Fidelity.run: cohort must be at least 1";
  if p.brackets < 1 then invalid_arg "Fidelity.run: brackets must be at least 1";
  if not (Float.is_finite p.low_weight) || p.low_weight < 0. then
    invalid_arg "Fidelity.run: low_weight must be finite and non-negative";
  match p.cost_budget with
  | Some c when (not (Float.is_finite c)) || c <= 0. ->
      invalid_arg "Fidelity.run: cost_budget must be finite and positive"
  | Some _ | None -> ()

type result = {
  run : Tuner.result;
  total_cost : float;
  rung_evals : int array;
  n_promoted : int array;
  n_brackets : int;
  low_history : (int * Param.Config.t * float) array;
}

let entry_divergence_msg =
  "Fidelity.resume: run log diverges from the replayed trajectory (were the plan, seed, or \
   objective changed?)"

let fid_divergence_msg =
  "Fidelity.resume: recorded low-fidelity evaluations diverge from the recomputed schedule (were \
   the plan, seed, or options changed?)"

let rung_divergence_msg =
  "Fidelity.resume: recorded rung closures diverge from the recomputed ones (were the plan, \
   seed, or options changed?)"

let overrun_msg =
  "Fidelity.resume: the run log records more results than the recomputed campaign produces \
   (were the plan, budget, or options changed?)"

(* Fidelity objectives are total: one attempt, no retry cost. *)
let verdict y =
  { Resilience.Evaluator.outcome = Resilience.Outcome.Value y; attempts = 1; retry_cost = 0. }

(* A single-rung plan is a flat full-fidelity campaign: delegate to
   the async engine wholesale so the degenerate bracket is
   bit-identical to [Tuner.run_with_policy ~mode:(Async k)] — same rng
   stream, same submissions, same completion schedule. *)
let run_flat ~telemetry ~options ?candidates ?on_eval ?workers ~replay ~k ~rng ~space ~objective
    ~budget () =
  let obj ~attempt:_ config = Resilience.Outcome.Value (objective ~rung:0 config) in
  let replay_verdicts = Array.map (fun (c, y) -> (c, verdict y)) replay in
  let on_outcome =
    Option.map
      (fun f idx config (v : Resilience.Evaluator.verdict) ->
        match v.Resilience.Evaluator.outcome with
        | Resilience.Outcome.Value y -> f idx config y
        | _ -> ())
      on_eval
  in
  match
    Tuner.run_with_policy ~telemetry ~options ~mode:(Campaign.Async k) ?candidates ?on_outcome
      ~replay:replay_verdicts ?pool:workers ~rng ~space ~objective:obj ~budget ()
  with
  | Stdlib.Error e -> Stdlib.Error e
  | Stdlib.Ok run ->
      let evals = Array.length run.Tuner.history + Array.length run.Tuner.failures in
      Stdlib.Ok
        {
          run;
          total_cost = float_of_int evals;
          rung_evals = [| evals |];
          n_promoted = [| 0 |];
          n_brackets = 1;
          low_history = [||];
        }

(* The bracket scheduler as a step machine run by [Tuner.drive]:
   evaluations run inline on the calling domain ([workers] only
   rank), each completing its rung's cost after submission. *)
let run_brackets ~telemetry ~options ?candidates ?on_eval ?on_fid ?on_rung ~recorded_fids
    ~recorded_rungs ~replay ~workers ~plan ~k ~rng ~space ~objective ~budget () =
  (match options.Tuner.prior with
  | Some _ ->
      invalid_arg
        "Fidelity.run: multi-rung plans carry low-rung evidence through the prior channel; \
         options.prior must be None"
  | None -> ());
  (match options.Tuner.strategy with
  | Strategy.Ranking -> ()
  | Strategy.Proposal _ ->
      invalid_arg "Fidelity.run: multi-rung plans require the Ranking strategy");
  let encoded = Campaign.encode_pool ~who:"Fidelity.run" ~space candidates in
  let n_rungs = Array.length plan.costs in
  let top = n_rungs - 1 in
  (* The recorded value of each [(rung, config)]: cohort entry is
     deduplicated across brackets and a promotion moves a configuration
     up exactly one rung, so the pair is a unique key. *)
  let recorded = Array.init n_rungs (fun _ -> Param.Config.Table.create 16) in
  Array.iter (fun (c, v) -> Param.Config.Table.replace recorded.(top) c v) replay;
  Array.iter
    (fun (f : Dataset.Runlog.fid) ->
      let r = f.Dataset.Runlog.f_rung in
      if r >= 0 && r < top then
        Param.Config.Table.replace recorded.(r) f.Dataset.Runlog.f_config f.Dataset.Runlog.f_value)
    recorded_fids;
  let ledger =
    Campaign.Ledger.create ~telemetry ~t0:(Telemetry.Trace.now telemetry) ~budget
      ~n_init:plan.cohort ~batch_size:k ~n_warm:0 ~n_replay:(Array.length replay)
  in
  (* Campaign-wide state. [seen] deduplicates cohort entry only:
     promotions legitimately resubmit a configuration at a higher rung,
     so they bypass it. *)
  let seen = Param.Config.Table.create 64 in
  let submitted = ref 0 in
  let completed = ref 0 in
  let total_cost = ref 0. in
  let rung_evals = Array.make n_rungs 0 in
  let n_promoted = Array.make n_rungs 0 in
  let low_hist_rev = ref [] in
  let final_surrogate = ref None in
  let no_more = ref false in
  let next_fid = ref 0 in
  let next_rung_rec = ref 0 in
  let outcome = ref None in
  (* In flight, newest first: the suggestion and its rung. *)
  let pend = ref [] in
  (* Per-bracket state, reset at seeding; queue entries carry the
     suggestion's [guided] flag. *)
  let queues = Array.init n_rungs (fun _ -> Queue.create ()) in
  let results = Array.make n_rungs [] in
  (* newest first *)
  let expected = Array.make n_rungs 0 in
  let bracket = ref (-1) in
  let brackets_run = ref 0 in
  (* Seed the next bracket's rung-0 cohort: random draws for the first
     bracket (no evidence yet), a guided ranking over the pool —
     full-fidelity history as exact evidence, populated low rungs as
     weighted priors — afterwards, with random draws filling any
     shortfall. Ranking consumes no rng, so the random stream advances
     only on actual draws, which is what keeps a resumed campaign on
     the same stream. An empty cohort (pool exhausted, or every draw a
     duplicate) ends the campaign. *)
  let seed_bracket () =
    incr bracket;
    Array.iter Queue.clear queues;
    Array.fill results 0 n_rungs [];
    Array.fill expected 0 n_rungs 0;
    let full_obs = Campaign.Ledger.history ledger in
    let guided =
      if Array.length full_obs = 0 then []
      else begin
        let priors =
          List.concat
            (List.init top (fun r ->
                 match List.filter (fun (r', _, _) -> r' = r) !low_hist_rev with
                 | [] -> []
                 | obs ->
                     let o = Array.of_list (List.rev_map (fun (_, c, v) -> (c, v)) obs) in
                     [
                       ( Surrogate.fit ~options:options.Tuner.surrogate space o,
                         plan.low_weight *. plan.costs.(r) );
                     ]))
        in
        let surrogate =
          Surrogate.fit ~telemetry ~options:options.Tuner.surrogate ~priors space full_obs
        in
        final_surrogate := Some surrogate;
        Strategy.select_many_encoded ~telemetry ?workers ~k:plan.cohort ~surrogate ~encoded
          ~evaluated:seen ()
      end
    in
    let enqueue ~guided c =
      if not (Param.Config.Table.mem seen c) then begin
        Param.Config.Table.replace seen c ();
        Queue.push (c, guided) queues.(0);
        expected.(0) <- expected.(0) + 1
      end
    in
    List.iter (enqueue ~guided:true) guided;
    for _ = 1 to plan.cohort - expected.(0) do
      enqueue ~guided:false (fst (Campaign.draw_fresh ~rng ~candidates ~space ~seen))
    done;
    if expected.(0) = 0 then no_more := true else incr brackets_run
  in
  (* A rung closure: sort ascending (stable, so completion order breaks
     ties), promote the best [ceil (n / eta)] — at least one — and
     abandon the rest. The closure record is verified against the
     recorded prefix on resume, exactly like the gate decisions:
     divergence means the campaign being resumed is not the one that
     was recorded, so fail loudly. *)
  let close_rung r =
    let n = expected.(r) in
    let sorted = List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) (List.rev results.(r)) in
    let kept = min n (max 1 (int_of_float (Float.ceil (float_of_int n /. plan.eta)))) in
    let best_v = match sorted with (_, v) :: _ -> v | [] -> assert false in
    List.iteri (fun i (c, _) -> if i < kept then Queue.push (c, true) queues.(r + 1)) sorted;
    expected.(r + 1) <- expected.(r + 1) + kept;
    n_promoted.(r) <- n_promoted.(r) + kept;
    let dropped = n - kept in
    Telemetry.Trace.emit telemetry
      (Telemetry.Event.Promote { bracket = !bracket; rung = r; kept; total = n; best = best_v });
    if dropped > 0 then
      Telemetry.Trace.emit telemetry
        (Telemetry.Event.Demote { bracket = !bracket; rung = r; dropped; total = n });
    let record =
      {
        Dataset.Runlog.r_bracket = !bracket;
        r_rung = r;
        r_evaluated = n;
        r_promoted = kept;
        r_best = best_v;
      }
    in
    if !next_rung_rec < Array.length recorded_rungs then begin
      if not (Dataset.Runlog.rung_equal recorded_rungs.(!next_rung_rec) record) then
        failwith rung_divergence_msg;
      incr next_rung_rec
    end
    else Option.iter (fun f -> f record) on_rung
  in
  let finish () =
    if
      rung_evals.(top) < Array.length replay
      || !next_fid < Array.length recorded_fids
      || !next_rung_rec < Array.length recorded_rungs
    then failwith overrun_msg;
    let run =
      Campaign.Ledger.close ledger ~evaluations:!completed ~final_surrogate:!final_surrogate
        ~stopped_early:false
    in
    outcome :=
      Some
        (Result.map
           (fun run ->
             {
               run;
               total_cost = !total_cost;
               rung_evals;
               n_promoted;
               n_brackets = !brackets_run;
               low_history = Array.of_list (List.rev !low_hist_rev);
             })
           run);
    Campaign.Finished
  in
  let submit ~at r =
    let config, guided = Queue.pop queues.(r) in
    let id = !submitted in
    incr submitted;
    total_cost := !total_cost +. plan.costs.(r);
    let sug =
      {
        Campaign.id;
        config;
        guided;
        recorded = Option.map verdict (Param.Config.Table.find_opt recorded.(r) config);
      }
    in
    pend := (sug, r) :: !pend;
    Campaign.Ledger.submit ledger ~index:id ~in_flight:(List.length !pend) ~at;
    Campaign.Suggest sug
  in
  (* Keep slots full from the lowest rung with queued work. The first
     submission that would overrun the budget (count or simulated
     cost) latches [no_more]: queued work beyond it is abandoned, and
     rungs left short of their expected results never close. A bracket
     ends when nothing is queued or pending; the next one is then
     seeded. *)
  let rec suggest ~at =
    if Option.is_some !outcome then Campaign.Finished
    else if !no_more || List.length !pend >= k then
      if !pend = [] then finish () else Campaign.Wait
    else
      let rec lowest r =
        if r >= n_rungs then None
        else if not (Queue.is_empty queues.(r)) then Some r
        else lowest (r + 1)
      in
      match lowest 0 with
      | Some r ->
          if
            !submitted >= budget
            || (match plan.cost_budget with
               | Some cb -> !total_cost +. plan.costs.(r) > cb
               | None -> false)
          then begin
            no_more := true;
            suggest ~at
          end
          else submit ~at r
      | None when !pend <> [] -> Campaign.Wait
      | None when !bracket + 1 < plan.brackets ->
          seed_bracket ();
          suggest ~at
      | None -> finish ()
  in
  let rung_of id = snd (List.find (fun (s, _) -> s.Campaign.id = id) !pend) in
  (* A completion: verify it against the recorded streams (top-rung
     completions against the entries, low-rung ones against [#fid], in
     completion order; a recorded result completing past its stream's
     prefix means the order diverged), book it, and close its rung once
     every configuration that entered the rung has completed. Only
     completions past the records fire the persistence callbacks. *)
  let report ~at ~eval_ms ~id (v : Resilience.Evaluator.verdict) =
    let sug, r =
      match List.find_opt (fun (s, _) -> s.Campaign.id = id) !pend with
      | Some p -> p
      | None -> invalid_arg (Printf.sprintf "Fidelity.run: suggestion %d is not pending" id)
    in
    pend := List.filter (fun (s, _) -> s.Campaign.id <> id) !pend;
    let config = sug.Campaign.config in
    let replayed = Option.is_some sug.Campaign.recorded in
    if r = top then begin
      if rung_evals.(top) < Array.length replay then begin
        if not (Param.Config.equal (fst replay.(rung_evals.(top))) config) then
          failwith entry_divergence_msg
      end
      else if replayed then failwith entry_divergence_msg
    end
    else if !next_fid < Array.length recorded_fids then begin
      let rf = recorded_fids.(!next_fid) in
      if
        rf.Dataset.Runlog.f_bracket <> !bracket
        || rf.Dataset.Runlog.f_rung <> r
        || not (Param.Config.equal rf.Dataset.Runlog.f_config config)
      then failwith fid_divergence_msg;
      incr next_fid
    end
    else if replayed then failwith fid_divergence_msg;
    let value =
      match v.Resilience.Evaluator.outcome with
      | Resilience.Outcome.Value y when Float.is_finite y -> y
      | _ -> invalid_arg "Fidelity.run: objective returned a non-finite value"
    in
    results.(r) <- (config, value) :: results.(r);
    if r = top then begin
      let idx = rung_evals.(top) in
      ignore (Campaign.Ledger.record ledger ~index:idx ~replayed ~dur_ms:eval_ms config v);
      if not replayed then Option.iter (fun f -> f idx config value) on_eval
    end
    else begin
      Campaign.Ledger.tally ledger v;
      low_hist_rev := (r, config, value) :: !low_hist_rev;
      if not replayed then
        Option.iter
          (fun f ->
            f
              {
                Dataset.Runlog.f_bracket = !bracket;
                f_rung = r;
                f_value = value;
                f_config = config;
              })
          on_fid
    end;
    rung_evals.(r) <- rung_evals.(r) + 1;
    Campaign.Ledger.complete ledger ~index:!completed ~in_flight:(List.length !pend) ~at "ok";
    incr completed;
    if r < top && List.length results.(r) = expected.(r) && expected.(r) > 0 then close_rung r
  in
  let evaluate ?probe:_ (s : Campaign.suggestion) =
    verdict (objective ~rung:(rung_of s.Campaign.id) s.Campaign.config)
  in
  Tuner.drive ~telemetry ~workers:None
    ~duration:(fun s _ -> plan.costs.(rung_of s.Campaign.id))
    ~evaluate
    ~suggest ~report ~result:(fun () -> Option.get !outcome)

let run ?(telemetry = Telemetry.Trace.disabled) ?(options = Tuner.default_options) ?candidates
    ?on_eval ?on_fid ?on_rung ?(recorded_fids = [||]) ?(recorded_rungs = [||]) ?(replay = [||])
    ?pool:workers ~plan ~k ~rng ~space ~objective ~budget () =
  validate_plan plan;
  Surrogate.validate_options options.Tuner.surrogate;
  if k < 1 then invalid_arg "Fidelity.run: k must be at least 1";
  if budget < 1 then invalid_arg "Fidelity.run: budget must be at least 1";
  if Array.length plan.costs = 1 then begin
    if Array.length recorded_fids > 0 || Array.length recorded_rungs > 0 then
      failwith
        "Fidelity.resume: the run log records bracket state but this plan has a single rung \
         (restore the original multi-rung plan, or start fresh without resuming)";
    run_flat ~telemetry ~options ?candidates ?on_eval ?workers ~replay ~k ~rng ~space ~objective
      ~budget ()
  end
  else
    run_brackets ~telemetry ~options ?candidates ?on_eval ?on_fid ?on_rung ~recorded_fids
      ~recorded_rungs ~replay ~workers ~plan ~k ~rng ~space ~objective ~budget ()

let resume ?telemetry ?options ?candidates ?on_eval ?on_fid ?on_rung ?pool ~plan ~k ~log
    ~objective ~budget () =
  let replay =
    Array.map
      (fun (c, (v : Resilience.Evaluator.verdict)) ->
        match v.Resilience.Evaluator.outcome with
        | Resilience.Outcome.Value y -> (c, y)
        | _ ->
            failwith
              "Fidelity.resume: the run log records evaluation failures, which the fidelity \
               scheduler never produces")
      (Campaign.replay_of_log ~policy:Resilience.Policy.default log)
  in
  if Array.length replay > budget then
    invalid_arg "Fidelity.resume: budget is smaller than the recorded evaluation count";
  let rng = Prng.Rng.create log.Dataset.Runlog.seed in
  run ?telemetry ?options ?candidates ?on_eval ?on_fid ?on_rung
    ~recorded_fids:log.Dataset.Runlog.fids ~recorded_rungs:log.Dataset.Runlog.rungs ~replay ?pool
    ~plan ~k ~rng ~space:log.Dataset.Runlog.space ~objective ~budget ()
