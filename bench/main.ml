(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index) plus the ablations and
   microbenchmarks.

     dune exec bench/main.exe                         # everything, default reps
     dune exec bench/main.exe -- --experiment fig2    # one artifact
     dune exec bench/main.exe -- --reps 50            # the paper's full protocol
     dune exec bench/main.exe -- --list *)

let default_reps = 5

let experiments =
  Experiments.all
  @ [
      { Experiments.id = "micro"; describe = "microbenchmarks"; run = Micro.run };
      {
        Experiments.id = "select";
        describe = "naive vs compiled candidate ranking (writes BENCH_select.json)";
        run = Select_bench.run;
      };
      {
        Experiments.id = "async";
        describe = "sync vs async campaign engine, k in-flight (writes BENCH_async.json)";
        run = Async_bench.run;
      };
      {
        Experiments.id = "transfer";
        describe = "transfer vs no-prior vs random on source->target pairs (writes BENCH_transfer.json)";
        run = Transfer_bench.run;
      };
      {
        Experiments.id = "fidelity";
        describe =
          "successive halving vs flat full-fidelity tuning (writes BENCH_fidelity.json)";
        run = Fidelity_bench.run;
      };
      {
        Experiments.id = "moo";
        describe =
          "multi-objective Pareto hypervolume on Kripke time+energy (writes BENCH_moo.json)";
        run = Moo_bench.run;
      };
    ]

let list_experiments () =
  Printf.printf "available experiments:\n";
  List.iter (fun e -> Printf.printf "  %-26s %s\n" e.Experiments.id e.Experiments.describe) experiments;
  Printf.printf "  %-26s run everything\n" "all"

let () =
  let reps = ref default_reps in
  let target = ref "all" in
  let spec =
    [
      ("--experiment", Arg.Set_string target, "ID  experiment to run (default: all)");
      ("--reps", Arg.Set_int reps, "N  repetitions per experiment (default: 10; paper: 50)");
      ("--list", Arg.Unit (fun () -> list_experiments (); exit 0), "  list experiment ids");
    ]
  in
  Arg.parse spec
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "bench/main.exe [--experiment ID] [--reps N]";
  if !reps < 1 then begin
    prerr_endline "reps must be at least 1";
    exit 1
  end;
  Printf.printf "HiPerBOt reproduction benchmarks (reps=%d)\n%!" !reps;
  match !target with
  | "all" -> List.iter (fun e -> e.Experiments.run ~reps:!reps ()) experiments
  | id -> begin
      match List.find_opt (fun e -> e.Experiments.id = id) experiments with
      | Some e -> e.Experiments.run ~reps:!reps ()
      | None ->
          Printf.eprintf "unknown experiment %S\n" id;
          list_experiments ();
          exit 1
    end
