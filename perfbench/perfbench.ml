(* The end-to-end benchmark.

     perfbench --workload <tune-cold|serve-mixed> --seed <n>
               --seconds <s> --trace <0|1>

   With --trace 0 it measures the end-to-end metrics with tracing off;
   with --trace 1 it runs the same workload traced and reports the
   per-layer metrics instead. Both runs check the outputs. The last
   line of standard output is the result:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   Lines before it give the run context, every metric with its sample
   count, and the deterministic counts. The exit code is 1 when any
   check fails, 2 on a usage error. See README.md. *)

open Measure

let usage () =
  prerr_endline
    "usage: perfbench --workload <tune-cold|serve-mixed> --seed <n> --seconds <s> \
     --trace <0|1>";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace
    when List.mem workload [ "tune-cold"; "serve-mixed" ] && seconds > 0. ->
      { workload; seed; seconds; trace }
  | _ -> usage ()

(* Scratch run logs live in the checkout and are removed at exit. *)
let scratch_dir () =
  let root = ".bench_tmp" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let d = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let remove_scratch d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Sys.rmdir d;
  let root = Filename.dirname d in
  if Sys.readdir root = [||] then Sys.rmdir root

(* Set up [n] times, adding each time to [times]; returns the last
   set-up's value. A run sets up five times before its timed phase and
   five times after it and reports the median of the ten, so neither
   one slow set-up nor one slow stretch of the host decides the metric. *)
let setups = 5

let set_up times f =
  let v = ref None in
  for _ = 1 to setups do
    let x, dt = timed f in
    add times dt;
    v := Some x
  done;
  Option.get !v

let setup_metric times = metric ~stat:"p50" ~samples:(count times) "setup_s" "s" (median times)

let heap_top_mb () =
  float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1e6

type outcome = {
  metrics : metric list;
  info : metric list;  (** printed beside the metrics, not in the result *)
  counts : (string * int) list;  (** deterministic counts of the fixed job set *)
  attempted : int;
  failed : int;
  problems : string list;
  notes : (string * string) list;
}

(* ---- tune-cold ---- *)

let run_tune (w : Tune.workload) a gen dir =
  let layers = Layers.create () in
  let setup_times = samples () in
  let set_up_once () = Flat.of_table (w.build ()) in
  let flat = set_up setup_times set_up_once in
  (* The traced run also serves a short session over the same table. *)
  let served_sp = if a.trace then Some (Served.space_of_table ~label:"table" (w.build ())) else None in
  (* One untimed job first, so the heap and code are warm. *)
  ignore (Tune.job ~rec_:(Tune.recorder ()) w 1);
  Gc.compact ();
  let failed = ref 0 and problems = ref [] in
  let fail msg =
    incr failed;
    problems := msg :: !problems
  in
  let job_ms = samples () and suggest_us = samples () and report_us = samples () in
  let recovery_ms = samples () in
  let rec_ = { Tune.suggest_us; report_us } in
  let det = ref [] and det_words = ref 0. and heap_mb = ref nan in
  let jobs = ref 0 in
  let start = now () in
  while now () -. start < a.seconds || !jobs < w.det_jobs do
    let seed = Random.State.bits gen in
    let in_det = !jobs < w.det_jobs in
    let traced = a.trace && !jobs mod 2 = 0 in
    let span = if traced then Some (Layers.open_span layers) else None in
    let major0 = Layers.major_collections () and words0 = Gc.minor_words () in
    let (c, r), dt = timed (fun () -> Tune.job ?span ~rec_ w seed) in
    add layers.Layers.major_per_job (float (Layers.major_collections () - major0));
    if in_det then det_words := !det_words +. (Gc.minor_words () -. words0);
    Option.iter (Layers.close_span ~det:in_det) span;
    add job_ms (dt *. 1000.);
    add (if traced then layers.Layers.traced_job_ms else layers.Layers.plain_job_ms) (dt *. 1000.);
    if not (Tune.check_job w flat c r) then fail (Printf.sprintf "job seed %d: budget or best" seed);
    if in_det then det := (seed, r) :: !det;
    (* Resume the job after a crash at half budget, untimed as a job. *)
    let load_s, replay_s, ok = Tune.resume_probe ~dir w flat seed r in
    add recovery_ms ((load_s +. replay_s) *. 1000.);
    add layers.Layers.load_ms (load_s *. 1000.);
    add layers.Layers.replay_ms (replay_s *. 1000.);
    if not ok then fail (Printf.sprintf "resume differs, seed %d" seed);
    incr jobs;
    (* The heap peak when the fixed set is done, a fixed point of the
       work whatever the host's speed. *)
    if !jobs = w.det_jobs then heap_mb := heap_top_mb ()
  done;
  let jobs = !jobs in
  ignore (set_up setup_times set_up_once);
  let det = List.rev !det in
  (* The CLI path agrees bit for bit on the first job's seed. *)
  (let seed, r = List.hd det in
   if not (Tune.check_tuner w flat seed r) then fail (Printf.sprintf "Tuner.run differs, seed %d" seed));
  (* The served path over the same table, for the serve layers. *)
  let serve_stats = Served.stats layers in
  Option.iter
    (fun sp -> ignore (Served.cycle serve_stats ~trace:false ~dir ~gen ~budget:40 ~id:0 [ (sp, 2) ]))
    served_sp;
  let total_s = sum job_ms /. 1000. in
  let n = float jobs in
  let mean_over f = List.fold_left (fun acc x -> acc +. f x) 0. det /. float (List.length det) in
  let recall = mean_over (fun (_, r) -> Metrics.Recall.recall flat.good r.Hiperbot.Campaign.history) in
  let to5 =
    mean_over (fun (_, r) ->
        float (Tune.evals_to_within ~optimum:flat.best r.Hiperbot.Campaign.history))
  in
  let det_n = List.length det in
  let metrics =
    if a.trace then Layers.metrics layers
    else
      [
        setup_metric setup_times;
        p90 "tune_ms_p90" "ms" job_ms;
        metric ~stat:"mean" ~samples:det_n "recall" "fraction" recall;
        metric ~stat:"mean" ~samples:det_n "evals_to_5pct" "evaluations" to5;
        metric ~stat:"max" "heap_top_mb" "MB" !heap_mb;
      ]
  in
  let best_digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map (fun (s, r) -> Printf.sprintf "%d:%h" s r.Hiperbot.Campaign.best_value) det)))
  in
  let info =
    if a.trace then []
    else
      [
        p50 "tune_ms_p50" "ms" job_ms;
        p50 "suggest_us_p50" "us" suggest_us;
        p90 "suggest_us_p90" "us" suggest_us;
        p50 "report_us_p50" "us" report_us;
        p90 "report_us_p90" "us" report_us;
        p50 "recovery_ms_p50" "ms" recovery_ms;
        p90 "recovery_ms_p90" "ms" recovery_ms;
      ]
  in
  {
    metrics;
    info;
    counts =
      (if a.trace then Layers.counts layers
       else
         [
           ("jobs", det_n);
           ("evaluations", det_n * w.budget);
           ("minor_words", int_of_float !det_words);
         ]);
    attempted = (2 * jobs) + 1 + serve_stats.Served.requests;
    failed = !failed + serve_stats.Served.failed;
    problems = List.rev !problems @ serve_stats.Served.problems;
    notes =
      [
        ("jobs", string_of_int jobs);
        ("jobs_per_s", Printf.sprintf "%.4g" (n /. total_s));
        ("best_digest", best_digest);
      ];
  }

(* ---- serve-mixed ---- *)

(* One session per space: four clients, each on its own space. With
   four sessions per space the sixteen interleaved campaigns no longer
   fit the core's caches, and the run-to-run spread on a shared host
   grew from about 10% to over 40%. *)
let sessions_per_space = 1
let serve_budget = 200
let det_cycles = 24

(* Request tails are taken per window of eight cycles (about 6 600
   requests, so the tail is a p99 with some 66 samples beyond it) and
   the median over windows is reported. *)
let cycles_per_window = 8

let rec group_windows = function
  | [] -> []
  | ((lo, _) :: _) as slices ->
      let chunk = List.filteri (fun i _ -> i < cycles_per_window) slices in
      let rest = List.filteri (fun i _ -> i >= cycles_per_window) slices in
      (lo, snd (List.nth chunk (List.length chunk - 1))) :: group_windows rest

let run_serve a gen dir =
  let layers = Layers.create () in
  let setup_times = samples () in
  let set_up_once () =
    layers.Layers.rows <- 0;
    Served.mixed_spaces layers
  in
  let spaces = set_up setup_times set_up_once in
  let plan = List.map (fun sp -> (sp, sessions_per_space)) spaces in
  (* One untimed cycle first, so the heap and code are warm. *)
  ignore
    (Served.cycle (Served.stats (Layers.create ())) ~trace:false ~dir ~gen:(Random.State.make [| 0 |])
       ~budget:serve_budget ~id:0 plan);
  Gc.compact ();
  let st = Served.stats layers in
  (* Every recovered session ends with the uninterrupted best for its
     seed. With tracing, the reference runs once traced and once not,
     in alternating order, and the difference is the trace overhead. *)
  let verified = ref 0 in
  let verify cid sessions =
    List.iteri
      (fun i (s : Served.session) ->
        let reference ?span () =
          Served.direct ?span s.Served.sp ~seed:s.Served.seed ~pick_seed:s.Served.pick_seed
            ~budget:s.Served.budget
        in
        let best =
          if not a.trace then reference ()
          else begin
            let traced () =
              let span = Layers.open_span layers in
              let b, dt = timed (fun () -> reference ~span ()) in
              Layers.close_span ~det:(cid < det_cycles) span;
              add layers.Layers.traced_job_ms (dt *. 1000.);
              b
            in
            let plain () =
              let b, dt = timed (fun () -> reference ()) in
              add layers.Layers.plain_job_ms (dt *. 1000.);
              b
            in
            if i mod 2 = 0 then (
              let b = traced () in
              ignore (plain ());
              b)
            else (
              ignore (plain ());
              traced ())
          end
        in
        incr verified;
        if best <> s.Served.best then
          Served.problem st
            (Printf.sprintf "%s: best %s, uninterrupted %s" s.Served.name s.Served.best best))
      sessions
  in
  (* Each cycle is verified right after it runs, untimed, so the timed
     cycles spread over the whole run rather than its first part. Only
     the fixed set's sessions are kept, and the heap peak is read when
     that set is done: a fixed point of the work, whatever the host's
     speed. *)
  let det = ref [] and heap_mb = ref nan and wall = ref 0. and n_sessions = ref 0 in
  let start = now () in
  let id = ref 0 in
  while now () -. start < a.seconds || !id < det_cycles do
    let major0 = Layers.major_collections () in
    let sessions, dt =
      timed (fun () -> Served.cycle st ~trace:a.trace ~dir ~gen ~budget:serve_budget ~id:!id plan)
    in
    let n = List.length sessions in
    add layers.Layers.major_per_job
      (float (Layers.major_collections () - major0) /. float n);
    wall := !wall +. dt;
    n_sessions := !n_sessions + n;
    verify !id sessions;
    if !id < det_cycles then det := List.rev_append sessions !det;
    if !id = det_cycles - 1 then heap_mb := heap_top_mb ();
    incr id
  done;
  ignore (set_up setup_times set_up_once);
  let det = List.rev !det and n_sessions = !n_sessions in
  let det_n = List.length det in
  let mean_over f = List.fold_left (fun acc s -> acc +. f s) 0. det /. float det_n in
  let recall =
    mean_over (fun (s : Served.session) ->
        Metrics.Recall.recall s.Served.sp.Served.flat.Flat.good (Served.history s))
  in
  let to5 = mean_over (fun s -> float (Served.evals_to_within s)) in
  let windows pick = group_windows (List.rev_map pick st.Served.windows) in
  let metrics =
    if a.trace then Layers.metrics layers
    else
      [
        setup_metric setup_times;
        p90 "tune_ms_p90" "ms" st.Served.session_ms;
        metric ~stat:"mean" ~samples:det_n "recall" "fraction" recall;
        metric ~stat:"mean" ~samples:det_n "evals_to_5pct" "evaluations" to5;
        metric ~stat:"max" "heap_top_mb" "MB" !heap_mb;
      ]
  in
  let best_digest =
    Digest.to_hex
      (Digest.string (String.concat ";" (List.map (fun (s : Served.session) -> s.Served.best) det)))
  in
  let info =
    if a.trace then []
    else
      [
        p50 "tune_ms_p50" "ms" st.Served.session_ms;
        p50 "suggest_us_p50" "us" st.Served.suggest_us;
        windowed_tail "suggest_us_tail" "us" st.Served.suggest_us (windows fst);
        p50 "report_us_p50" "us" st.Served.report_us;
        windowed_tail "report_us_tail" "us" st.Served.report_us (windows snd);
        p50 "recovery_ms_p50" "ms" st.Served.recovery_ms;
        p90 "recovery_ms_p90" "ms" st.Served.recovery_ms;
      ]
  in
  {
    metrics;
    info;
    counts =
      (if a.trace then Layers.counts layers
       else [ ("sessions", det_n); ("evaluations", det_n * serve_budget) ]);
    attempted = st.Served.requests + !verified;
    failed = st.Served.failed;
    problems = List.rev st.Served.problems;
    notes =
      [
        ("cycles", string_of_int !id);
        ("sessions", string_of_int n_sessions);
        ("sessions_per_s", Printf.sprintf "%.4g" (float n_sessions /. !wall));
        ("evals_per_s", Printf.sprintf "%.4g" (float st.Served.accepted /. !wall));
        ("requests", string_of_int st.Served.requests);
        ("accepted_reports", string_of_int st.Served.accepted);
        ("infeasible_reports", string_of_int st.Served.infeasible);
        ("malformed_answered_err", string_of_int layers.Layers.err_expected);
        ("unexpected_err", string_of_int layers.Layers.err_unexpected);
        ("best_digest", best_digest);
      ];
  }

(* ---- run context and output ---- *)

(* A digest of the library sources, standing in for the commit when
   the checkout is not a git repository. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then [ p ]
           else [])
  in
  if Sys.file_exists "lib" then
    Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (files "lib"))))
  else "none"

let () =
  let a = parse_args () in
  let calibration_before = calibration_ms () in
  let gen = Random.State.make [| a.seed; Hashtbl.hash a.workload |] in
  let dir = scratch_dir () in
  let o =
    Fun.protect
      ~finally:(fun () -> remove_scratch dir)
      (fun () ->
        match a.workload with
        | "tune-cold" -> run_tune Tune.cold a gen dir
        | _ -> run_serve a gen dir)
  in
  let calibration_after = calibration_ms () in
  let metrics_ok = List.for_all (fun m -> Float.is_finite m.value) o.metrics in
  let correct = o.failed = 0 && metrics_ok in
  let str s = json_string s and num = json_number in
  print_endline
    (json_object
       [
         ( "context",
           json_object
             ([
                ("workload", str a.workload);
                ("seed", num (float a.seed));
                ("seconds", num a.seconds);
                ("trace", str (if a.trace then "1" else "0"));
                ("nproc", num (float (Domain.recommended_domain_count ())));
                ("ocaml", str Sys.ocaml_version);
                ("commit", str (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"none"));
                ("source_digest", str (source_digest ()));
                ("calibration_ms_before", num calibration_before);
                ("calibration_ms_after", num calibration_after);
              ]
             @ List.map (fun (k, v) -> (k, str v)) o.notes) );
       ]);
  let print kind m =
    Printf.printf "%-6s %-36s %14.6g %-12s %-8s n=%d\n" kind m.name m.value m.unit_ m.stat m.samples
  in
  List.iter (print "metric") o.metrics;
  List.iter (print "info") o.info;
  print_endline
    (json_object [ ("counts", json_object (List.map (fun (k, v) -> (k, num (float v))) o.counts)) ]);
  List.iter (fun p -> Printf.printf "problem: %s\n" p) o.problems;
  print_endline
    (json_object
       [
         ("correct", if correct then "true" else "false");
         ("attempted", num (float o.attempted));
         ("failed", num (float o.failed));
         ( "metrics",
           json_object
             (List.map
                (fun m -> (m.name, json_object [ ("value", num m.value); ("unit", str m.unit_) ]))
                o.metrics) );
       ]);
  exit (if correct then 0 else 1)
