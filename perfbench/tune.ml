(* The `tune` workload: whole synchronous campaigns over a fully
   evaluated simulator table, as `hiperbot tune -d <dataset>` runs them.
   Every job builds its table, as a fresh CLI process does. *)

open Measure

type workload = {
  build : unit -> Dataset.Table.t;
  budget : int;
  det_jobs : int;  (** the fixed job set behind recall and the counts *)
}

let cold = { build = Hpcsim.Kripke.energy_table; budget = 150; det_jobs = 60 }

(* The CLI's `tune` options at their defaults. *)
let options =
  {
    Hiperbot.Campaign.default_options with
    n_init = 20;
    surrogate = { Hiperbot.Surrogate.default_options with alpha = 0.2 };
  }

let verdict y =
  { Resilience.Evaluator.outcome = Resilience.Outcome.Value y; attempts = 1; retry_cost = 0. }

(* One sample per job of each: the job's mean [suggest] and [report]
   call. A report takes well under a microsecond, too close to the
   clock's resolution to time alone, and per-call tails would mostly
   time the host rather than the job. *)
type recorder = { suggest_us : samples; report_us : samples }

let recorder () = { suggest_us = samples (); report_us = samples () }

(* Drive one Sync campaign to the end, timing every step call. *)
let drive ?span ~rec_ ~objective c =
  let suggest_s = ref 0. and suggests = ref 0 and report_s = ref 0. and reports = ref 0 in
  let rec loop () =
    let t0 = now () in
    let step = Layers.suggest span c in
    suggest_s := !suggest_s +. (now () -. t0);
    incr suggests;
    match step with
    | Hiperbot.Campaign.Finished -> ()
    | Hiperbot.Campaign.Wait -> failwith "a Sync campaign answered Wait"
    | Hiperbot.Campaign.Suggest s ->
        let v = verdict (objective s.Hiperbot.Campaign.config) in
        let t0 = now () in
        Layers.report span c ~id:s.Hiperbot.Campaign.id v;
        report_s := !report_s +. (now () -. t0);
        incr reports;
        loop ()
  in
  loop ();
  add rec_.suggest_us (!suggest_s /. float !suggests *. 1e6);
  if !reports > 0 then add rec_.report_us (!report_s /. float !reports *. 1e6)

(* One whole job: build the table, then run the campaign over it.
   Returns the campaign and its result. *)
let job ?span ~rec_ w seed =
  let t0 = now () in
  let table = w.build () in
  Option.iter
    (fun sp ->
      add sp.Layers.layers.Layers.table_build_ms ((now () -. t0) *. 1000.);
      sp.Layers.layers.Layers.rows <- Dataset.Table.size table)
    span;
  let space = Dataset.Table.space table in
  let objective = Dataset.Table.objective_fn table in
  let c =
    Hiperbot.Campaign.create ?telemetry:(Layers.telemetry span) ~options ~mode:Hiperbot.Campaign.Sync
      ~rng:(Prng.Rng.create seed) ~space ~budget:w.budget ()
  in
  drive ?span ~rec_ ~objective c;
  match Hiperbot.Campaign.result c with
  | Ok r -> (c, r)
  | Error _ -> failwith "a campaign over a total objective failed"

(* ---- correctness ---- *)

let same_best space (a : Hiperbot.Campaign.result) (b : Hiperbot.Campaign.result) =
  Int64.equal (Int64.bits_of_float a.best_value) (Int64.bits_of_float b.best_value)
  && Param.Space.to_string space a.best_config = Param.Space.to_string space b.best_config

(* Every job evaluates exactly its budget and its best is a table row. *)
let check_job w flat c (r : Hiperbot.Campaign.result) =
  Hiperbot.Campaign.n_evaluated c = w.budget
  && Array.length r.history = w.budget
  && Flat.mem flat r.best_config
  && Int64.equal
       (Int64.bits_of_float (Flat.objective flat r.best_config))
       (Int64.bits_of_float r.best_value)

(* The CLI path: [Tuner.run] with the same seed must agree bit for bit. *)
let check_tuner w (flat : Flat.t) seed r =
  let t =
    Hiperbot.Tuner.run ~options ~rng:(Prng.Rng.create seed) ~space:flat.space
      ~objective:(Flat.objective flat) ~budget:w.budget ()
  in
  same_best flat.space r t

(* What `tune --resume` pays after a crash at half budget: load the
   run log and rebuild the campaign from it. The resumed campaign must
   finish with the uninterrupted best. Returns (load_s, replay_s, ok). *)
let resume_probe ~dir w (flat : Flat.t) seed (straight : Hiperbot.Campaign.result) =
  let space = flat.space in
  let half = w.budget / 2 in
  let path = Filename.concat dir (Printf.sprintf "tune-%d.runlog" seed) in
  let rc = Dataset.Runlog.recorder ~name:"tune" ~seed ~space in
  Array.iteri
    (fun i (cfg, y) -> if i < half then Dataset.Runlog.record_evaluation rc i cfg y)
    straight.history;
  Dataset.Runlog.save (Dataset.Runlog.finish rc) path;
  let log, load_s = timed (fun () -> Dataset.Runlog.load ~recover:true path) in
  let c, replay_s =
    timed (fun () ->
        Hiperbot.Campaign.of_log ~options ~mode:Hiperbot.Campaign.Sync ~log ~budget:w.budget ())
  in
  drive ~rec_:(recorder ()) ~objective:(Flat.objective flat) c;
  Sys.remove path;
  let ok =
    match Hiperbot.Campaign.result c with
    | Ok r -> same_best space r straight
    | Error _ -> false
  in
  (load_s, replay_s, ok)

(* ---- quality ---- *)

(* First evaluation (1-based) within 5% of the table optimum;
   budget + 1 when the job never got there. *)
let evals_to_within ~optimum history =
  let n = Array.length history in
  let rec go i =
    if i = n then n + 1 else if snd history.(i) <= optimum *. 1.05 then i + 1 else go (i + 1)
  in
  go 0
