(* Per-layer accumulators, filled by the traced run, and the campaign
   step calls wrapped in spans.

   Spans are taken here, around the public calls into each layer; the
   surrogate and strategy layers inside [Campaign.suggest] are read from
   the campaign's own Refit/Compile/Rank telemetry events. *)

open Measure

type t = {
  table_build_ms : samples;
  mutable rows : int;
  refit_us : samples;
  compile_us : samples;
  rank_us : samples;
  step_suggest_us : samples;  (** [Campaign.suggest] spans *)
  step_report_us : samples;  (** [Campaign.report] spans *)
  load_ms : samples;
  replay_ms : samples;
  open_us : samples;
  status_us : samples;
  mutable suggest_requests : int;
  mutable wait_replies : int;
  mutable err_expected : int;
  mutable err_unexpected : int;
  mutable pools : int;
  major_per_job : samples;
  traced_job_ms : samples;
  plain_job_ms : samples;
  (* Deterministic counts over the fixed job set of a run. *)
  mutable det_jobs : int;
  mutable det_refits : int;
  mutable det_compiles : int;
  mutable det_ranks : int;
  mutable det_extra_bad : int;
  mutable det_suggests : int;
  mutable det_minor_words : float;
}

let create () =
  {
    table_build_ms = samples ();
    rows = 0;
    refit_us = samples ();
    compile_us = samples ();
    rank_us = samples ();
    step_suggest_us = samples ();
    step_report_us = samples ();
    load_ms = samples ();
    replay_ms = samples ();
    open_us = samples ();
    status_us = samples ();
    suggest_requests = 0;
    wait_replies = 0;
    err_expected = 0;
    err_unexpected = 0;
    pools = 0;
    major_per_job = samples ();
    traced_job_ms = samples ();
    plain_job_ms = samples ();
    det_jobs = 0;
    det_refits = 0;
    det_compiles = 0;
    det_ranks = 0;
    det_extra_bad = 0;
    det_suggests = 0;
    det_minor_words = 0.;
  }

(* One traced campaign: a telemetry trace on the monotonic clock with an
   in-memory sink, plus the counters the step spans fill. *)
type span = {
  layers : t;
  trace : Telemetry.Trace.t;
  events : unit -> (float * Telemetry.Event.t) list;
  mutable suggests : int;
  mutable minor_words : float;
}

let open_span layers =
  let sink, events = Telemetry.Trace.memory_sink () in
  { layers; trace = Telemetry.Trace.make ~clock:now [ sink ]; events; suggests = 0; minor_words = 0. }

(* Fold a finished campaign's events into the layer totals; [det]
   marks a campaign of the run's fixed job set. *)
let close_span ~det sp =
  let l = sp.layers in
  let refits = ref 0 and compiles = ref 0 and ranks = ref 0 and extra = ref 0 in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Telemetry.Event.Refit r ->
          incr refits;
          extra := !extra + r.n_extra_bad;
          add l.refit_us (r.dur_ms *. 1000.)
      | Telemetry.Event.Compile c ->
          incr compiles;
          add l.compile_us (c.dur_ms *. 1000.)
      | Telemetry.Event.Rank r ->
          incr ranks;
          add l.rank_us (r.dur_ms *. 1000.)
      | _ -> ())
    (sp.events ());
  Telemetry.Trace.close sp.trace;
  if det then begin
    l.det_jobs <- l.det_jobs + 1;
    l.det_refits <- l.det_refits + !refits;
    l.det_compiles <- l.det_compiles + !compiles;
    l.det_ranks <- l.det_ranks + !ranks;
    l.det_extra_bad <- l.det_extra_bad + !extra;
    l.det_suggests <- l.det_suggests + sp.suggests;
    l.det_minor_words <- l.det_minor_words +. sp.minor_words
  end

let telemetry = function Some sp -> Some sp.trace | None -> None

let suggest span c =
  match span with
  | None -> Hiperbot.Campaign.suggest c
  | Some sp ->
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let r = Hiperbot.Campaign.suggest c in
      add sp.layers.step_suggest_us ((now () -. t0) *. 1e6);
      sp.minor_words <- sp.minor_words +. (Gc.minor_words () -. w0);
      sp.suggests <- sp.suggests + 1;
      r

let report span c ~id verdict =
  match span with
  | None -> Hiperbot.Campaign.report c ~id verdict
  | Some sp ->
      let t0 = now () in
      Hiperbot.Campaign.report c ~id verdict;
      add sp.layers.step_report_us ((now () -. t0) *. 1e6)

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Every per-layer metric, in the order BENCHMARK.json lists them. *)
let metrics l =
  let per n d = if d = 0 then 0. else float n /. float d in
  let self_us =
    let n = count l.step_suggest_us in
    if n = 0 then 0.
    else (sum l.step_suggest_us -. sum l.refit_us -. sum l.compile_us -. sum l.rank_us) /. float n
  in
  let overhead =
    let t = median l.traced_job_ms and p = median l.plain_job_ms in
    (t -. p) /. p *. 100.
  in
  [
    p50 "hpcsim.table_build_ms" "ms" l.table_build_ms;
    metric "hpcsim.rows" "count" (float l.rows);
    p50 "surrogate.refit_us_p50" "us" l.refit_us;
    p50 "surrogate.compile_us_p50" "us" l.compile_us;
    metric ~stat:"mean" ~samples:l.det_refits "surrogate.extra_bad_per_refit" "count"
      (per l.det_extra_bad l.det_refits);
    metric ~stat:"mean" ~samples:l.det_jobs "surrogate.refits_per_job" "count"
      (per l.det_refits l.det_jobs);
    metric ~stat:"mean" ~samples:l.det_jobs "surrogate.compiles_per_job" "count"
      (per l.det_compiles l.det_jobs);
    p50 "strategy.rank_us_p50" "us" l.rank_us;
    metric ~stat:"mean" ~samples:l.det_jobs "strategy.ranks_per_job" "count"
      (per l.det_ranks l.det_jobs);
    metric ~stat:"mean" ~samples:(count l.step_suggest_us) "campaign.suggest_us_mean" "us"
      (mean l.step_suggest_us);
    metric ~stat:"mean" ~samples:(count l.step_report_us) "campaign.report_us_mean" "us"
      (mean l.step_report_us);
    metric ~stat:"mean" ~samples:(count l.step_suggest_us) "campaign.self_us_per_suggest" "us"
      self_us;
    metric ~stat:"mean" ~samples:l.det_suggests "campaign.minor_words_per_suggest" "words"
      (if l.det_suggests = 0 then 0. else l.det_minor_words /. float l.det_suggests);
    p50 "runlog.load_ms" "ms" l.load_ms;
    p50 "runlog.replay_ms" "ms" l.replay_ms;
    p50 "serve.open_us_p50" "us" l.open_us;
    p50 "serve.status_us_p50" "us" l.status_us;
    metric ~samples:l.suggest_requests "serve.wait_frac" "fraction"
      (per l.wait_replies l.suggest_requests);
    metric "serve.err_expected" "count" (float l.err_expected);
    metric "serve.err_unexpected" "count" (float l.err_unexpected);
    metric "serve.pools" "count" (float l.pools);
    metric ~stat:"mean" ~samples:(count l.major_per_job) "gc.major_collections_per_job" "count"
      (mean l.major_per_job);
    metric ~stat:"p50-diff" ~samples:(count l.traced_job_ms + count l.plain_job_ms)
      "telemetry.trace_overhead_pct" "%" overhead;
  ]

(* The deterministic counts of the fixed job set, printed beside the
   timings so two runs with one seed can be compared for identity. *)
let counts l =
  [
    ("jobs", l.det_jobs);
    ("refits", l.det_refits);
    ("compiles", l.det_compiles);
    ("ranks", l.det_ranks);
    ("n_extra_bad", l.det_extra_bad);
    ("suggests", l.det_suggests);
    ("minor_words", int_of_float l.det_minor_words);
  ]
