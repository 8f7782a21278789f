(** The HiPerBOt iterative tuning loop (paper §III-C).

    1. Evaluate [n_init] configurations drawn uniformly at random.
    2. Fit the surrogate on the observation history.
    3. Select the candidate(s) maximizing expected improvement.
    4. Evaluate, append to the history; repeat 2-4 until the
       evaluation budget is exhausted or the early-stop criterion
       fires.

    Three entry points drive that loop over the reentrant {!Campaign}
    state machine: {!run} for a total objective, {!run_with_policy}
    for objectives that can fail (and for the asynchronous engine,
    [~mode:(Async k)]), and {!resume} to continue a campaign from its
    run log. The configuration and result types are re-exported from
    {!Campaign}, so the two APIs interoperate freely.

    The [prior] option turns the same loop into the transfer-learning
    variant (§III-E): surrogates fitted on source-domain data are
    mixed into every refit, each with its own weight, optionally
    annealed by a decay schedule as target evidence accumulates
    ({!Transfer.prior} builds one from source observations).
    [batch_size] amortizes one refit over several evaluations;
    [early_stop] implements the paper's sample-quality termination
    condition.

    Failed evaluations are absorbed into the surrogate's bad density
    instead of ending the run: every failed configuration is
    classified by the {!Resilience.Outcome} taxonomy, retried
    according to a {!Resilience.Policy} (transients and timeouts only
    — permanent failures are never retried), and counted against the
    budget exactly once regardless of how many attempts it took. *)

type prior = Campaign.prior = {
  sources : (Surrogate.t * float) array;
      (** source-domain surrogates with their base weights, merged
          into every refit in array order (paper eqs. 9-10) *)
  decay : int -> float;
      (** weight multiplier as a function of the refit's target
          observation count (warm-start included); must return finite
          non-negative values. {!constant_decay} keeps priors at full
          strength forever. *)
  gate : Gate.options option;
      (** safeguarded transfer: when set, every refit scores each
          source's agreement with the target evidence and attenuates /
          drops sources whose trust decays (see {!Gate}). [None]
          reproduces ungated transfer bit-exactly. *)
}

val constant_decay : int -> float
(** [fun _ -> 1.] — the undecayed schedule. Its multiplier is exact
    ([w *. 1. = w] bit-for-bit), so a constant-decay prior reproduces
    a fixed-weight campaign bit-identically. *)

val prior_of : ?decay:(int -> float) -> ?gate:Gate.options -> (Surrogate.t * float) list -> prior
(** Build a prior from source surrogates and weights (decay defaults
    to {!constant_decay}; gate defaults to none — ungated). Raises
    [Invalid_argument] on out-of-range gate options. *)

type options = Campaign.options = {
  n_init : int;  (** random initial samples (paper: 20) *)
  surrogate : Surrogate.options;
  strategy : Strategy.t;
  prior : prior option;  (** transfer prior sources and decay schedule *)
  batch_size : int;  (** evaluations per surrogate refit (default 1; ignored under [Async]) *)
  early_stop : int option;
      (** stop after this many consecutive guided evaluations without
          improving the best observed objective (default [None]:
          run the full budget) *)
}

val default_options : options
(** n_init 20, surrogate defaults (alpha 0.2), [Ranking], no prior,
    batch 1, no early stop. *)

type result = Campaign.result = {
  history : (Param.Config.t * float) array;
      (** every successful evaluation performed by this run, in
          completion order (initial samples first under [Sync];
          warm-start observations are excluded) *)
  best_config : Param.Config.t;
  best_value : float;
  trajectory : float array;
      (** best-so-far objective after each successful evaluation;
          [trajectory.(i)] covers [history.(0..i)] *)
  final_surrogate : Surrogate.t option;
      (** the last fitted surrogate (None when the budget was too
          small to fit one, i.e. no iterative step ran) *)
  stopped_early : bool;  (** the [early_stop] criterion ended the run *)
  failures : (Param.Config.t * Resilience.Outcome.t) array;
      (** configurations whose evaluation failed, with the final
          outcome after retries *)
  n_attempts : int;
      (** total objective attempts including retries; equals
          [Array.length history + Array.length failures] when nothing
          was retried *)
  retry_cost : float;  (** accumulated simulated backoff cost *)
}

type run_error = Campaign.run_error = {
  error_failures : (Param.Config.t * Resilience.Outcome.t) array;
      (** every failed configuration with its final outcome *)
  error_attempts : int;  (** total attempts spent before giving up *)
}
(** Every evaluation of the run failed — there is no best
    configuration to report. *)

val run :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?on_evaluation:(int -> Param.Config.t -> float -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  ?pool:Parallel.Pool.t ->
  rng:Prng.Rng.t ->
  space:Param.Space.t ->
  objective:(Param.Config.t -> float) ->
  budget:int ->
  unit ->
  result
(** [run ~rng ~space ~objective ~budget ()] performs at most [budget]
    evaluations of [objective] (warm-start observations do not count
    against the budget; duplicate random initial draws are evaluated
    once). Requires [budget >= 1]. [on_evaluation i config value] is
    called after each evaluation with its 0-based index. The
    objective is called inline, once per configuration, with no retry
    policy (so a trace carries no [Attempt] events).

    [pool] parallelizes candidate ranking across a domain pool;
    because ties break on the candidate's pool index, selections —
    and therefore the whole campaign — are bit-identical to the
    sequential run for every worker count. Ranking consumes no rng,
    so the random stream is untouched too.

    [candidates] restricts both initialization and selection to an
    explicit configuration set — e.g. the measured rows of a study
    loaded with {!Dataset.Infer.table_of_csv}, which usually cover
    only part of the cross-product space. It must be non-empty,
    duplicate-free, and is only supported with the [Ranking]
    strategy.

    With the [Ranking] strategy the space must be finite (unless
    [candidates] is given); if the budget exceeds the candidate count
    the run stops early when every configuration has been evaluated.
    The enumerated pool is {e virtual} ({!Surrogate.Pool.of_space}):
    rows are decoded on demand during the ranking scan, so campaign
    memory is O(1) in the pool size and million-configuration spaces
    are ranked from a few MB of score tables. Each refit runs through
    the incremental engine ({!Surrogate.Refit}), which only rebuilds
    the per-parameter tables that changed — the selections stay
    bit-identical to the full-rebuild path.

    [on_gate] fires once per transfer-gate decision (a source
    attenuated, restored, or dropped; the pooled-prior fallback) in
    the shape {!Dataset.Runlog.gate} expects, so run-log writers can
    persist the decisions as they happen.

    [telemetry] (here and on the other entry points) streams the
    campaign's structured events — [Campaign_start], one [Init_draw]
    per random draw, [Refit]/[Compile]/[Rank] spans per iteration,
    one [Eval] per consumed budget unit, and a final [Campaign_end] —
    to the given {!Telemetry.Trace.t}. Tracing reads only the trace's
    clock: it performs no rng draws and never influences selection,
    so a traced campaign is bit-identical to an untraced one. The
    default is {!Telemetry.Trace.disabled}, which costs one pointer
    comparison per site. *)

val run_with_policy :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?mode:Campaign.mode ->
  ?policy:Resilience.Policy.t ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  ?recorded_gates:Dataset.Runlog.gate array ->
  ?replay:(Param.Config.t * Resilience.Evaluator.verdict) array ->
  ?pool:Parallel.Pool.t ->
  ?duration:(Param.Config.t -> Resilience.Evaluator.verdict -> float) ->
  rng:Prng.Rng.t ->
  space:Param.Space.t ->
  objective:(attempt:int -> Param.Config.t -> Resilience.Outcome.t) ->
  budget:int ->
  unit ->
  (result, run_error) Stdlib.result
(** {!run} for objectives that can fail — builds that crash, invalid
    parameter combinations, timed-out runs. Each selected
    configuration is driven through {!Resilience.Evaluator.evaluate}
    under [policy] (default {!Resilience.Policy.default} — 3
    attempts, exponential simulated backoff, no timeout). The final
    verdict consumes one unit of budget whatever its attempt count,
    and failed configurations join the bad density of every later
    surrogate fit, steering selection away from the failing region;
    they appear in [failures], not [history]. A batch member whose
    verdict is [Timeout] (a straggler exceeding the policy's cost
    budget) is recorded as a failure and the batch completes.
    [on_outcome i config verdict] fires once per consumed budget unit
    with the final verdict. With [telemetry] enabled, every retry
    attempt additionally emits an [Attempt] event. An invalid
    [policy] ({!Resilience.Policy.validate}) raises [Invalid_argument]
    before anything is evaluated. When every
    evaluation failed the run returns [Error] with the structured
    failure report instead of raising. An [option]-valued objective
    plugs in through {!Resilience.Outcome.of_option} ([None] is
    [Permanent], never retried).

    {b Modes.} [mode] (default [Sync]) picks the engine. [Sync] has
    one suggestion outstanding at a time and evaluates it inline on
    the calling domain — even when [pool] is given, which then only
    parallelizes ranking. [Async k] keeps up to [k] evaluations in
    flight and refits whenever a slot frees, instead of waiting for a
    batch barrier ([options.batch_size] is ignored). In-flight
    configurations join the surrogate's bad density as constant
    liars, and the submission-time dedup table excludes exact
    duplicates. Completion order is decided by a simulated clock,
    never by wall time: a submission completes at its submission time
    plus [duration config verdict], which must be finite and
    non-negative (ties break toward the earlier submission; [duration]
    is only consulted under [Async]). The default duration is the
    measured objective value when it is finite and positive (an HPC
    runtime objective is its own natural duration), 1.0 otherwise,
    plus the verdict's accumulated retry backoff cost. With
    [pool] the [Async] evaluations execute concurrently on worker
    domains ([objective] must then be thread-safe), but the same
    seed and duration function give a bit-identical campaign for
    every worker count — and [Async 1] retraces [Sync] (with the
    default batch size) exactly. Under [Async], [history],
    [trajectory], [on_outcome] indices, and run-log entries written
    from [on_outcome] are in completion order, and [telemetry]
    carries one [Submit] and one [Complete] event per slot
    ([Campaign_start] records [k] in its [batch_size] field).

    {b Replay.} [replay] is the resume mechanism (see {!resume}):
    recorded verdicts stand in for the first [Array.length replay]
    evaluations (without calling [objective] or firing
    [on_outcome]); the tuner performs the same rng draws and
    selection, so the run continues exactly where the recorded one
    stopped. A configuration that departs from the record raises
    [Failure] — under [Sync] before the objective is called.
    [recorded_gates] is the gate-decision counterpart: the recomputed
    decision stream is verified against this prefix ([Failure] on
    divergence) without re-firing [on_gate] for decisions the log
    already holds. *)

val resume :
  ?telemetry:Telemetry.Trace.t ->
  ?options:options ->
  ?mode:Campaign.mode ->
  ?policy:Resilience.Policy.t ->
  ?warm_start:(Param.Config.t * float) array ->
  ?candidates:Param.Config.t array ->
  ?on_outcome:(int -> Param.Config.t -> Resilience.Evaluator.verdict -> unit) ->
  ?on_gate:(Dataset.Runlog.gate -> unit) ->
  ?pool:Parallel.Pool.t ->
  ?duration:(Param.Config.t -> Resilience.Evaluator.verdict -> float) ->
  log:Dataset.Runlog.t ->
  objective:(attempt:int -> Param.Config.t -> Resilience.Outcome.t) ->
  budget:int ->
  unit ->
  (result, run_error) Stdlib.result
(** [resume ~log ~objective ~budget ()] reconstructs an interrupted
    campaign from its run log and continues it up to [budget] total
    evaluations: {!run_with_policy} with the rng rebuilt from
    [log.seed], the space from the log header, and the recorded
    entries as [replay]. Given the same [mode], [options], [policy],
    [duration] and objective, an interrupted-then-resumed campaign
    produces bit-for-bit the same evaluation sequence, trajectory,
    and best configuration as an uninterrupted run. Raises
    [Invalid_argument] if the log already holds more than [budget]
    entries and [Failure] if the log's entries are not dense from
    index 0 or diverge from the replayed trajectory.

    Gated campaigns resume bit-exactly too: the gate state is not
    stored — it is a pure function of the refit sequence, which replay
    reproduces — and the log's recorded [#gate] decisions are verified
    as a prefix of the recomputed stream ([Failure] on mismatch), with
    [on_gate] firing only for decisions beyond the recorded prefix. *)

(** {2 The driver loop} *)

val drive :
  telemetry:Telemetry.Trace.t ->
  workers:Parallel.Pool.t option ->
  duration:(Campaign.suggestion -> Resilience.Evaluator.verdict Lazy.t -> float) ->
  evaluate:
    (?probe:(attempt:int -> backoff:float -> Resilience.Outcome.t -> unit) ->
    Campaign.suggestion ->
    Resilience.Evaluator.verdict) ->
  suggest:(at:float -> Campaign.step) ->
  report:(at:float -> eval_ms:float -> id:int -> Resilience.Evaluator.verdict -> unit) ->
  result:(unit -> 'r) ->
  'r
(** The one driver loop of every blocking engine, over a step machine
    — a {!Campaign}, or [Fidelity]'s rung scheduler — given by its
    [suggest], [report] and [result]. It keeps the machine's in-flight
    set full and completes suggestions in simulated-clock order —
    [duration s v] after submission, ties to the smaller id, forcing
    [v] only if [duration] reads it — until the machine finishes. A
    suggestion's [recorded] verdict is handed back as is (the machine
    checks its completion order when it is reported); any other is
    evaluated on a [workers] domain when issued, or inline on the
    calling domain. [Attempt] events are emitted at completion from
    the calling domain. *)
