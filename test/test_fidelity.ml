(* Multi-fidelity successive-halving scheduler: plan validation, the
   degenerate single-rung delegation (bit-identical to run_async),
   promotion arithmetic, cost accounting, and the interrupt/resume
   bit-exactness guarantee with its loud-divergence checks. *)

open Hiperbot

(* Deterministic two-rung-correlated objective: the rung only scales
   the hash value, so low-rung rankings equal full-fidelity rankings
   (promotion decisions become predictable). *)
let scaled_objective ~rung config = Gen.hash_objective config *. (1. +. (0.01 *. float_of_int rung))

(* Perfectly-ranked objective over the 3 x 4 cat/ord space: the value
   is the configuration's enumeration rank, identical at every rung. *)
let rank_objective ~rung:_ (config : Param.Config.t) =
  float_of_int ((Param.Value.to_index config.(0) * 4) + Param.Value.to_index config.(1) + 1)

let two_rung_plan =
  {
    Fidelity.costs = [| 0.25; 1. |];
    eta = 3.;
    cohort = 9;
    brackets = 1;
    low_weight = 0.25;
    cost_budget = None;
  }

let three_rung_plan =
  {
    Fidelity.costs = [| 0.25; 0.5; 1. |];
    eta = 3.;
    cohort = 9;
    brackets = 2;
    low_weight = 0.25;
    cost_budget = None;
  }

let fid_result = function
  | Stdlib.Ok (r : Fidelity.result) -> r
  | Stdlib.Error _ -> Alcotest.fail "fidelity campaign unexpectedly failed"

let test_plan_validation () =
  let check msg plan =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        Fidelity.validate_plan plan)
  in
  check "Fidelity.run: plan.costs must be non-empty" { two_rung_plan with costs = [||] };
  check "Fidelity.run: plan costs must be finite and positive"
    { two_rung_plan with costs = [| 0.; 1. |] };
  check "Fidelity.run: plan costs must be strictly increasing"
    { two_rung_plan with costs = [| 0.5; 0.5; 1. |] };
  check "Fidelity.run: the top rung's cost must be 1 (full fidelity)"
    { two_rung_plan with costs = [| 0.25; 0.5 |] };
  check "Fidelity.run: eta must be finite and greater than 1" { two_rung_plan with eta = 1. };
  check "Fidelity.run: cohort must be at least 1" { two_rung_plan with cohort = 0 };
  check "Fidelity.run: brackets must be at least 1" { two_rung_plan with brackets = 0 };
  check "Fidelity.run: low_weight must be finite and non-negative"
    { two_rung_plan with low_weight = -0.1 };
  check "Fidelity.run: cost_budget must be finite and positive"
    { two_rung_plan with cost_budget = Some 0. };
  Fidelity.validate_plan Fidelity.default_plan

(* A single-rung plan must reproduce run_async at the same k
   bit-for-bit: same rng stream, same submissions, same history. *)
let test_degenerate_matches_run_async () =
  List.iter
    (fun (seed, k) ->
      let plan = { Fidelity.default_plan with costs = [| 1. |] } in
      let fid =
        fid_result
          (Fidelity.run ~plan ~k ~rng:(Prng.Rng.create seed) ~space:Gen.wide_space
             ~objective:scaled_objective ~budget:25 ())
      in
      let asy =
        match
          Tuner.run_with_policy ~mode:(Campaign.Async k) ~rng:(Prng.Rng.create seed)
            ~space:Gen.wide_space
            ~objective:(fun ~attempt:_ c ->
              Resilience.Outcome.Value (scaled_objective ~rung:0 c))
            ~budget:25 ()
        with
        | Stdlib.Ok r -> r
        | Stdlib.Error _ -> Alcotest.fail "async campaign cannot fail"
      in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "seed=%d k=%d: degenerate plan is bit-identical to run_async" seed k)
        true
        (Gen.results_identical fid.Fidelity.run asy);
      Alcotest.check (Alcotest.array Alcotest.int) "one rung holds every evaluation"
        [| Array.length asy.Tuner.history |]
        fid.Fidelity.rung_evals;
      Alcotest.check (Alcotest.float 0.) "flat cost = evaluation count"
        (float_of_int (Array.length asy.Tuner.history))
        fid.Fidelity.total_cost;
      Alcotest.check Alcotest.int "no low-fidelity history" 0
        (Array.length fid.Fidelity.low_history))
    [ (11, 1); (11, 3); (42, 4) ]

let prop_degenerate_matches_async =
  QCheck2.Test.make ~name:"single-rung plan == run_async (any space, seed, k)" ~count:40
    ~print:(fun (space, seed, k, budget) ->
      Printf.sprintf "%s seed=%d k=%d budget=%d" (Gen.space_to_string space) seed k budget)
    (QCheck2.Gen.quad
       (Gen.space_gen ~allow_continuous:false ())
       Gen.seed_gen (QCheck2.Gen.int_range 1 4) (QCheck2.Gen.int_range 1 15))
    (fun (space, seed, k, budget) ->
      let plan = { Fidelity.default_plan with costs = [| 1. |] } in
      let fid =
        Fidelity.run ~plan ~k ~rng:(Prng.Rng.create seed) ~space ~objective:scaled_objective
          ~budget ()
      in
      let asy =
        Tuner.run_with_policy ~mode:(Campaign.Async k) ~rng:(Prng.Rng.create seed) ~space
          ~objective:(fun ~attempt:_ c -> Resilience.Outcome.Value (scaled_objective ~rung:0 c))
          ~budget ()
      in
      match (fid, asy) with
      | Stdlib.Ok f, Stdlib.Ok a -> Gen.results_identical f.Fidelity.run a
      | _ -> false)

(* cohort 9 at eta 3 over the 12-configuration cat/ord space: rung 0
   evaluates the cohort, the closure keeps ceil(9/3) = 3, and with the
   rung-invariant rank objective the survivors are exactly the three
   best-ranked members of the cohort. *)
let test_promotion_math () =
  let rungs = ref [] in
  let res =
    fid_result
      (Fidelity.run ~plan:two_rung_plan ~k:3
         ~on_rung:(fun r -> rungs := r :: !rungs)
         ~rng:(Prng.Rng.create 5) ~space:Gen.cat_ord_space ~objective:rank_objective ~budget:100
         ())
  in
  Alcotest.check (Alcotest.array Alcotest.int) "rung evaluation counts" [| 9; 3 |]
    res.Fidelity.rung_evals;
  Alcotest.check (Alcotest.array Alcotest.int) "promotions per rung" [| 3; 0 |]
    res.Fidelity.n_promoted;
  Alcotest.check (Alcotest.float 0.) "total cost" ((9. *. 0.25) +. 3.) res.Fidelity.total_cost;
  Alcotest.check Alcotest.int "full-fidelity history = survivors" 3
    (Array.length res.Fidelity.run.Tuner.history);
  (* The survivors are the 3 lowest-valued rung-0 results. *)
  let low = Array.map (fun (_, _, v) -> v) res.Fidelity.low_history in
  Array.sort compare low;
  let expected_best = Array.sub low 0 3 in
  let promoted =
    Array.map (fun (c, _) -> rank_objective ~rung:0 c) res.Fidelity.run.Tuner.history
  in
  Array.sort compare promoted;
  Alcotest.check (Alcotest.array (Alcotest.float 0.)) "survivors are the rung-0 top third"
    expected_best promoted;
  (match !rungs with
  | [ r ] ->
      Alcotest.check Alcotest.int "rung record: evaluated" 9 r.Dataset.Runlog.r_evaluated;
      Alcotest.check Alcotest.int "rung record: promoted" 3 r.Dataset.Runlog.r_promoted;
      Alcotest.check (Alcotest.float 0.) "rung record: best" expected_best.(0)
        r.Dataset.Runlog.r_best
  | rs -> Alcotest.failf "expected exactly one rung record, got %d" (List.length rs));
  Alcotest.check Alcotest.bool "best value came from the top rung" true
    (Float.equal res.Fidelity.run.Tuner.best_value
       (Array.fold_left
          (fun acc (_, v) -> Float.min acc v)
          Float.infinity res.Fidelity.run.Tuner.history))

(* The simulated cost budget latches no-more-submissions exactly when
   the next submission would overrun it. *)
let test_cost_budget () =
  (* 9 x 0.25 = 2.25, then one full evaluation reaches 3.25 <= 3.25;
     a second would reach 4.25 and is never submitted. *)
  let res =
    fid_result
      (Fidelity.run
         ~plan:{ two_rung_plan with cost_budget = Some 3.25 }
         ~k:4 ~rng:(Prng.Rng.create 5) ~space:Gen.cat_ord_space ~objective:rank_objective
         ~budget:100 ())
  in
  Alcotest.check Alcotest.int "one full-fidelity evaluation" 1
    (Array.length res.Fidelity.run.Tuner.history);
  Alcotest.check (Alcotest.float 0.) "cost stops at the cap" 3.25 res.Fidelity.total_cost;
  (* A cap below the cohort's own cost leaves rung 0 unclosed: no
     full-fidelity evaluation ever runs, which is the Error case. *)
  match
    Fidelity.run
      ~plan:{ two_rung_plan with cost_budget = Some 2. }
      ~k:4 ~rng:(Prng.Rng.create 5) ~space:Gen.cat_ord_space ~objective:rank_objective
      ~budget:100 ()
  with
  | Stdlib.Ok _ -> Alcotest.fail "expected Error: the cost budget admits no full evaluation"
  | Stdlib.Error e ->
      Alcotest.check Alcotest.int "low-rung evaluations still counted" 8
        e.Tuner.error_attempts;
      Alcotest.check Alcotest.int "no failures" 0 (Array.length e.Tuner.error_failures)

(* Two brackets over the 64-configuration space: bracket 1 seeds from
   the guided ranking (full-fidelity evidence + low-rung priors), and
   the configuration stream entering rung 0 never repeats. *)
let test_multi_bracket () =
  let res =
    fid_result
      (Fidelity.run ~plan:three_rung_plan ~k:3 ~rng:(Prng.Rng.create 7) ~space:Gen.wide_space
         ~objective:scaled_objective ~budget:200 ())
  in
  Alcotest.check Alcotest.int "brackets run" 2 res.Fidelity.n_brackets;
  Alcotest.check (Alcotest.array Alcotest.int) "rung evaluation counts" [| 18; 6; 2 |]
    res.Fidelity.rung_evals;
  Alcotest.check (Alcotest.array Alcotest.int) "promotions per rung" [| 6; 2; 0 |]
    res.Fidelity.n_promoted;
  Alcotest.check (Alcotest.float 1e-12) "total cost"
    ((18. *. 0.25) +. (6. *. 0.5) +. 2.)
    res.Fidelity.total_cost;
  Alcotest.check Alcotest.int "full-fidelity history" 2
    (Array.length res.Fidelity.run.Tuner.history);
  Alcotest.check Alcotest.int "n_attempts counts every rung" 26
    res.Fidelity.run.Tuner.n_attempts;
  (* Rung-0 entrants are globally deduplicated across brackets. *)
  let rung0 =
    Array.to_list res.Fidelity.low_history
    |> List.filter_map (fun (r, c, _) -> if r = 0 then Some c else None)
  in
  let table = Param.Config.Table.create 32 in
  List.iter (fun c -> Param.Config.Table.replace table c ()) rung0;
  Alcotest.check Alcotest.int "no rung-0 entrant repeats" (List.length rung0)
    (Param.Config.Table.length table);
  (* Low-rung evidence never leaks into the exact history. *)
  Array.iter
    (fun (c, v) ->
      Alcotest.check (Alcotest.float 0.) "history value is the full-fidelity measurement"
        (scaled_objective ~rung:2 c) v)
    res.Fidelity.run.Tuner.history

(* ---- golden record stream ---- *)

(* Rung-dependent distortion of the hash objective: low rungs rank
   configurations imperfectly, so promotions are not foregone. *)
let noisy_objective ~rung config =
  let h = Gen.hash_objective config in
  h *. (1. +. (float_of_int ((Param.Config.hash config * (rung + 3)) land 7) /. 14.))

(* The persisted stream of a multi-rung run, one line per callback in
   firing order ([E]ntry, [F]id, [R]ung; floats in hex so the text is
   exact), then a summary line of the result. *)
let record_stream ~plan ~k ~seed ~budget =
  let space = Gen.wide_space in
  let b = Buffer.create 4096 in
  let cfg c = Param.Space.to_string space c in
  let on_eval i c v = Printf.bprintf b "E %d %h %s\n" i v (cfg c) in
  let on_fid (f : Dataset.Runlog.fid) =
    Printf.bprintf b "F %d %d %h %s\n" f.Dataset.Runlog.f_bracket f.Dataset.Runlog.f_rung
      f.Dataset.Runlog.f_value (cfg f.Dataset.Runlog.f_config)
  in
  let on_rung (r : Dataset.Runlog.rung) =
    Printf.bprintf b "R %d %d %d %d %h\n" r.Dataset.Runlog.r_bracket r.Dataset.Runlog.r_rung
      r.Dataset.Runlog.r_evaluated r.Dataset.Runlog.r_promoted r.Dataset.Runlog.r_best
  in
  (match
     Fidelity.run ~on_eval ~on_fid ~on_rung ~plan ~k ~rng:(Prng.Rng.create seed) ~space
       ~objective:noisy_objective ~budget ()
   with
  | Stdlib.Ok r ->
      Printf.bprintf b "= best %h %s cost %h rungs %s promoted %s brackets %d attempts %d\n"
        r.Fidelity.run.Tuner.best_value (cfg r.Fidelity.run.Tuner.best_config)
        r.Fidelity.total_cost
        (String.concat "/" (Array.to_list (Array.map string_of_int r.Fidelity.rung_evals)))
        (String.concat "/" (Array.to_list (Array.map string_of_int r.Fidelity.n_promoted)))
        r.Fidelity.n_brackets r.Fidelity.run.Tuner.n_attempts
  | Stdlib.Error e -> Printf.bprintf b "= error attempts %d\n" e.Tuner.error_attempts);
  Buffer.contents b

(* ---- interrupt / resume ---- *)

type recorded =
  | E of Dataset.Runlog.entry
  | F of Dataset.Runlog.fid
  | R of Dataset.Runlog.rung

(* A run or resume with its persisted record stream, in firing order. *)
let record_result ?recorded_log ~plan ~k ~seed ~space ~objective ~budget () =
  let events = ref [] in
  let on_eval index config value =
    events :=
      E { Dataset.Runlog.index; config; status = Dataset.Runlog.Ok value; attempts = 1 }
      :: !events
  in
  let on_fid f = events := F f :: !events in
  let on_rung r = events := R r :: !events in
  let res =
    match recorded_log with
    | None ->
        Fidelity.run ~on_eval ~on_fid ~on_rung ~plan ~k ~rng:(Prng.Rng.create seed) ~space
          ~objective ~budget ()
    | Some log -> Fidelity.resume ~on_eval ~on_fid ~on_rung ~plan ~k ~log ~objective ~budget ()
  in
  (res, List.rev !events)

let record_run ?recorded_log ~plan ~k ~seed ~space ~objective ~budget () =
  let res, events =
    record_result ?recorded_log ~plan ~k ~seed ~space ~objective ~budget ()
  in
  (fid_result res, events)

let log_of_events ~seed ~space events =
  let entries = List.filter_map (function E e -> Some e | _ -> None) events in
  let fids = List.filter_map (function F f -> Some f | _ -> None) events in
  let rungs = List.filter_map (function R r -> Some r | _ -> None) events in
  Dataset.Runlog.create ~fids ~rungs ~name:"fidelity-test" ~seed ~space entries

let recorded_equal a b =
  match (a, b) with
  | E x, E y ->
      x.Dataset.Runlog.index = y.Dataset.Runlog.index
      && Param.Config.equal x.Dataset.Runlog.config y.Dataset.Runlog.config
      && (match (x.Dataset.Runlog.status, y.Dataset.Runlog.status) with
         | Dataset.Runlog.Ok u, Dataset.Runlog.Ok v -> Float.equal u v
         | _ -> false)
  | F x, F y -> Dataset.Runlog.fid_equal x y
  | R x, R y -> Dataset.Runlog.rung_equal x y
  | _ -> false

let fid_results_identical (a : Fidelity.result) (b : Fidelity.result) =
  Gen.results_identical a.Fidelity.run b.Fidelity.run
  && Float.equal a.Fidelity.total_cost b.Fidelity.total_cost
  && a.Fidelity.rung_evals = b.Fidelity.rung_evals
  && a.Fidelity.n_promoted = b.Fidelity.n_promoted
  && a.Fidelity.n_brackets = b.Fidelity.n_brackets
  && Array.length a.Fidelity.low_history = Array.length b.Fidelity.low_history
  && Array.for_all2
       (fun (r1, c1, v1) (r2, c2, v2) ->
         r1 = r2 && Param.Config.equal c1 c2 && Float.equal v1 v2)
       a.Fidelity.low_history b.Fidelity.low_history

(* Interrupting at any point and resuming from the persisted streams
   replays the recorded prefix and continues bit-exactly: identical
   result, and the resumed run re-records exactly the missing suffix. *)
let test_interrupt_resume_bitexact () =
  let seed = 13 and space = Gen.wide_space in
  let full, events =
    record_run ~plan:three_rung_plan ~k:3 ~seed ~space ~objective:scaled_objective ~budget:200 ()
  in
  let n = List.length events in
  Alcotest.check Alcotest.bool "campaign recorded a rich event stream" true (n >= 20);
  List.iter
    (fun cut ->
      let prefix = List.filteri (fun i _ -> i < cut) events in
      let log = log_of_events ~seed ~space prefix in
      let resumed, new_events =
        record_run ~recorded_log:log ~plan:three_rung_plan ~k:3 ~seed ~space
          ~objective:scaled_objective ~budget:200 ()
      in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "cut=%d: resumed result is bit-identical" cut)
        true
        (fid_results_identical full resumed);
      Alcotest.check Alcotest.bool
        (Printf.sprintf "cut=%d: resume re-records exactly the suffix" cut)
        true
        (List.length new_events = n - cut
        && List.for_all2 recorded_equal (prefix @ new_events) events))
    [ 0; 1; 5; 12; 19; n - 1; n ]

(* Tampered or mismatched bracket state must fail loudly, never
   continue a silently different campaign. *)
let test_resume_divergence_fails () =
  let seed = 13 and space = Gen.wide_space in
  let _, events =
    record_run ~plan:three_rung_plan ~k:3 ~seed ~space ~objective:scaled_objective ~budget:200 ()
  in
  let expect_failure msg f =
    match f () with
    | _ -> Alcotest.fail (msg ^ ": expected Failure")
    | exception Failure _ -> ()
  in
  let resume_with ?(plan = three_rung_plan) events =
    Fidelity.resume ~plan ~k:3 ~log:(log_of_events ~seed ~space events)
      ~objective:scaled_objective ~budget:200 ()
  in
  (* Tampered rung record: the recomputed closure no longer matches. *)
  let tamper_rung = function
    | R r -> R { r with Dataset.Runlog.r_best = r.Dataset.Runlog.r_best +. 1. }
    | ev -> ev
  in
  expect_failure "tampered #rung" (fun () -> resume_with (List.map tamper_rung events));
  (* Tampered low-fidelity value: promotions shift, so the recorded
     closure diverges from the recomputed one. *)
  let tampered_fid =
    List.map
      (function
        | F f -> F { f with Dataset.Runlog.f_value = f.Dataset.Runlog.f_value *. 2. }
        | ev -> ev)
      events
  in
  expect_failure "tampered #fid values" (fun () -> resume_with tampered_fid);
  (* A different plan recomputes different closures. *)
  expect_failure "changed eta" (fun () ->
      resume_with ~plan:{ three_rung_plan with eta = 2. } events);
  (* Fewer brackets than the log records: leftover records mean the
     log belongs to a different campaign. *)
  expect_failure "shrunk bracket count" (fun () ->
      resume_with ~plan:{ three_rung_plan with brackets = 1 } events);
  (* A multi-rung log cannot resume under a single-rung plan. *)
  expect_failure "single-rung plan" (fun () ->
      resume_with ~plan:{ three_rung_plan with costs = [| 1. |] } events)

(* Random plans: ladder depth, cohort, eta, bracket count and an
   optional cost budget (tight ones end a campaign mid-bracket or with
   no full-fidelity evaluation at all, the [Error] case), with k in
   [1, 4] evaluations in flight. *)
let plan_gen =
  let open QCheck2.Gen in
  let* costs = oneofl [ [| 0.25; 1. |]; [| 0.25; 0.5; 1. |]; [| 0.125; 0.25; 0.5; 1. |] ] in
  let* cohort = int_range 1 12 in
  let* eta = oneofl [ 1.5; 2.; 3.; 4. ] in
  let* brackets = int_range 1 4 in
  let* cost_budget = opt (float_range 1. 30.) in
  return { Fidelity.costs; eta; cohort; brackets; low_weight = 0.25; cost_budget }

let print_plan (p : Fidelity.plan) =
  Printf.sprintf "costs=%d eta=%g cohort=%d brackets=%d cost_budget=%s"
    (Array.length p.Fidelity.costs) p.Fidelity.eta p.Fidelity.cohort p.Fidelity.brackets
    (match p.Fidelity.cost_budget with Some c -> Printf.sprintf "%g" c | None -> "none")

let prop_resume_bitexact =
  QCheck2.Test.make ~name:"resume from any cut point is bit-identical" ~count:40
    ~print:(fun (plan, k, seed, cut) ->
      Printf.sprintf "%s k=%d seed=%d cut=%d" (print_plan plan) k seed cut)
    (QCheck2.Gen.quad plan_gen (QCheck2.Gen.int_range 1 4) Gen.seed_gen
       (QCheck2.Gen.int_range 0 60))
    (fun (plan, k, seed, cut) ->
      let space = Gen.wide_space in
      let record ?recorded_log () =
        record_result ?recorded_log ~plan ~k ~seed ~space ~objective:noisy_objective
          ~budget:200 ()
      in
      let full, events = record () in
      let cut = min cut (List.length events) in
      let prefix = List.filteri (fun i _ -> i < cut) events in
      let resumed, suffix = record ~recorded_log:(log_of_events ~seed ~space prefix) () in
      (match (full, resumed) with
      | Stdlib.Ok a, Stdlib.Ok b -> fid_results_identical a b
      | Stdlib.Error a, Stdlib.Error b -> a.Tuner.error_attempts = b.Tuner.error_attempts
      | _ -> false)
      && List.length prefix + List.length suffix = List.length events
      && List.for_all2 recorded_equal (prefix @ suffix) events)

(* The pool only ranks: a run over a space large enough for parallel
   ranking equals the run without a pool bit for bit, and every
   objective call stays on the calling domain. *)
let test_pool_only_ranks () =
  let space =
    Param.Space.make
      (List.init 4 (fun i ->
           Param.Spec.ordinal_ints (Printf.sprintf "p%d" i) (List.init 16 (fun v -> v + 1))))
  in
  let caller = Domain.self () in
  let off_caller = Atomic.make 0 in
  let objective ~rung config =
    if Domain.self () <> caller then Atomic.incr off_caller;
    noisy_objective ~rung config
  in
  let run ?pool ?telemetry () =
    fid_result
      (Fidelity.run ?telemetry ?pool ~plan:{ three_rung_plan with brackets = 3 } ~k:3
         ~rng:(Prng.Rng.create 17) ~space ~objective ~budget:120 ())
  in
  let alone = run () in
  let sink, events = Telemetry.Trace.memory_sink () in
  let pooled =
    Parallel.Pool.with_pool ~num_domains:2 (fun pool ->
        run ~pool ~telemetry:(Telemetry.Trace.make [ sink ]) ())
  in
  let parallel_ranks =
    List.filter
      (function _, Telemetry.Event.Rank r -> r.workers > 1 | _ -> false)
      (events ())
  in
  Alcotest.check Alcotest.bool "the pool ranked in parallel" true (parallel_ranks <> []);
  Alcotest.check Alcotest.bool "pooled run = run without a pool" true
    (fid_results_identical alone pooled);
  Alcotest.check Alcotest.int "objective calls off the calling domain" 0
    (Atomic.get off_caller)

let golden_runs () =
  let p = Printf.sprintf in
  String.concat ""
    [
      p "# cohort 9, eta 3, 4 brackets, k=3\n";
      record_stream
        ~plan:{ three_rung_plan with brackets = 4 }
        ~k:3 ~seed:21 ~budget:200;
      p "# four rungs, eta 2, cost budget 12, k=2\n";
      record_stream
        ~plan:
          {
            Fidelity.costs = [| 0.125; 0.25; 0.5; 1. |];
            eta = 2.;
            cohort = 8;
            brackets = 3;
            low_weight = 0.5;
            cost_budget = Some 12.;
          }
        ~k:2 ~seed:5 ~budget:60;
      p "# submission budget 30 ends bracket 2 early, k=1\n";
      record_stream
        ~plan:{ three_rung_plan with brackets = 4 }
        ~k:1 ~seed:8 ~budget:30;
    ]

(* The scheduler must reproduce a stream recorded from an earlier
   implementation byte for byte: every entry, low-rung record and rung
   closure, in order. *)
let test_golden_stream () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "fixtures/fidelity_stream.expected"
  in
  let expected = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.check Alcotest.string "record stream" expected (golden_runs ())

let suite =
  let tc = Alcotest.test_case in
  ( "fidelity",
    [
      tc "plan validation" `Quick test_plan_validation;
      tc "degenerate single-rung plan == run_async" `Quick test_degenerate_matches_run_async;
      tc "promotion arithmetic (eta=3, cohort=9)" `Quick test_promotion_math;
      tc "cost budget latch + Error case" `Quick test_cost_budget;
      tc "two brackets: guided seeding, dedup, exact history" `Quick test_multi_bracket;
      tc "interrupt/resume is bit-exact at every cut" `Slow test_interrupt_resume_bitexact;
      tc "resume fails loudly on divergence" `Quick test_resume_divergence_fails;
      tc "golden record stream" `Quick test_golden_stream;
      tc "pool only ranks, objective on the caller" `Quick test_pool_only_ranks;
      QCheck_alcotest.to_alcotest prop_degenerate_matches_async;
      QCheck_alcotest.to_alcotest prop_resume_bitexact;
    ] )
