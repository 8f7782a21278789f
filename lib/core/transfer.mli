(** Transfer learning (paper §III-E, §VII).

    A surrogate is fitted on each source domain's observations and
    mixed into the target-domain surrogate as a weighted prior on both
    the good and bad densities (eqs. 9-10) — several sources fold in
    sequence via {!Density.merge_prior}. Transfer changes only the
    prior the tuning loop fits with: {!prior} builds it, and it rides
    in [options.prior] through every {!Tuner} entry point and mode
    (plain, fault-injected, resumed, asynchronous). Telemetry [Refit]
    spans label prior provenance (source count and total effective
    weight).

    {b Safeguarded transfer.} {!prior} takes
    [?gate : Gate.options option], default [Some Gate.default_options]
    — transfer is gated unless the caller opts out. The gate monitors
    each source's agreement with the accumulating target evidence at
    every refit and attenuates, then drops, sources whose trust decays
    (see {!Gate}); when every source is dropped the campaign continues
    bit-identically to a no-prior campaign from that refit onward.
    Pass [~gate:None] to reproduce ungated transfer bit-exactly, or
    [~gate:(Some opts)] to tune the thresholds. The tuner's [?on_gate]
    observes gate decisions for run-log persistence. *)

type weighting =
  | Constant_weights  (** use the caller's weights as given *)
  | Js_guided
      (** scale each source's weight by its agreement with the
          pooled-source consensus: one minus the mean per-parameter JS
          divergence (normalized by its ln 2 bound) between the
          source's good density and the good density fitted on all
          sources pooled. Contrarian sources are attenuated. With a
          single source the multiplier is exactly 1, so this mode is
          then bit-identical to [Constant_weights]. *)

(** Decay schedule: how prior weight anneals as target evidence
    accumulates. The multiplier is a function of the refit's target
    observation count [n] and scales every source's weight. *)
type schedule =
  | Constant  (** multiplier 1 forever — today's fixed-weight behaviour *)
  | Exponential of { half_life : float }
      (** [0.5 ** (n / half_life)]; [half_life] must be finite and
          positive *)
  | Reciprocal of { n0 : float }
      (** [n0 / (n0 + n)] — harmonic annealing; [n0] must be finite
          and positive *)
  | Custom of (int -> float)
      (** arbitrary; must return finite non-negative multipliers *)

val decay_of_schedule : schedule -> int -> float
(** The multiplier function of a schedule. [Constant] returns
    {!Tuner.constant_decay}, whose multiplier is bit-exact. Raises
    [Invalid_argument] on out-of-range schedule parameters. *)

val prior_of_sources :
  ?options:Surrogate.options ->
  ?weighting:weighting ->
  Param.Space.t ->
  ((Param.Config.t * float) array * float) list ->
  (Surrogate.t * float) list
(** Fit one surrogate per source and apply the weighting mode
    (default [Constant_weights]) to the given base weights. The result
    plugs directly into {!Tuner.prior_of}. *)

val prior :
  ?options:Surrogate.options ->
  ?weighting:weighting ->
  ?schedule:schedule ->
  ?gate:Gate.options option ->
  Param.Space.t ->
  ((Param.Config.t * float) array * float) list ->
  Tuner.prior
(** [prior space sources] is the campaign prior for transfer from
    [sources]: one surrogate fitted per [(observations, weight)]
    source ({!prior_of_sources}, with [weighting]), merged into every
    refit in list order, annealed by [schedule] (default [Constant])
    and safeguarded by [gate] (default [Some Gate.default_options]).
    Install it as [options.prior] of any {!Tuner} entry point. Pass
    the target campaign's [options.surrogate] as [options], so the
    source fits share the target's alpha and density options. Raises
    [Invalid_argument] on an empty source list, an empty source, a
    non-finite or negative weight, or out-of-range schedule or gate
    options. *)
