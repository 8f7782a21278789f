(* The serve-mixed workload: one persisted [Serve.t] driven by many
   closed-loop clients, crashed at half budget and recovered.

   Each client owns one session, keeps up to [k] suggestions in flight
   and answers them in an order drawn from its own generator. Clients
   take turns round robin; each sends one request per turn and waits
   for the reply. About 1% of turns also send a malformed line and 3% a
   [status] probe. When every session has half its budget evaluated
   and [k] suggestions out, the server is dropped without [close] and
   a fresh one reopens every session from its run log. *)

open Measure

let k = 4
let n_init = 8
let malformed_rate = 0.01
let status_rate = 0.03

(* ---- parameter spaces and the clients' objective ---- *)

type answer = { config : Param.Config.t; word : string; value : float option }

type space = {
  label : string;
  flat : Flat.t;  (** the table, as flat arrays by configuration rank *)
  feasible : bool array;  (** by configuration rank *)
  wire : string;  (** the space as [open] takes it *)
  specs : Param.Spec.t array;
  optimum : float;  (** best feasible objective *)
  pool : Hiperbot.Surrogate.Pool.t;  (** for the uninterrupted reference runs *)
}

let config_to_wire specs config =
  String.concat ","
    (Array.to_list (Array.mapi (fun i v -> Param.Spec.value_to_string specs.(i) v) config))

(* A client's view of a space: the table's objective and, by
   [outcome], which configurations it reports as feasible. The table
   itself is dropped; see [Flat]. *)
let space_of_table ~label ?(outcome = fun _ y -> Resilience.Outcome.Value y) table =
  let flat = Flat.of_table table in
  let space = flat.Flat.space in
  let specs = Param.Space.specs space in
  let feasible = Array.make (Flat.size flat) false in
  let optimum = ref infinity in
  for i = 0 to Dataset.Table.size table - 1 do
    let config = Dataset.Table.config table i in
    match outcome config (Dataset.Table.objective table i) with
    | Resilience.Outcome.Value y ->
        optimum := Float.min !optimum y;
        feasible.(Param.Space.config_rank space config) <- true
    | _ -> ()
  done;
  {
    label;
    flat;
    feasible;
    wire = String.concat ";" (Array.to_list (Array.map Dataset.Runlog.spec_to_string specs));
    specs;
    optimum = !optimum;
    pool = Hiperbot.Surrogate.Pool.of_space space;
  }

(* The verdict a client reports for a configuration of the space. *)
let answer sp config =
  let r = Param.Space.config_rank sp.flat.Flat.space config in
  if sp.feasible.(r) then
    let y = sp.flat.Flat.values.(r) in
    { config; word = Printf.sprintf "ok:%.17g" y; value = Some y }
  else { config; word = "fail:infeasible"; value = None }

(* The verdict for a configuration as the server renders it; [None]
   unless it is a configuration of the space in its canonical form. *)
let answer_of_wire sp w =
  let cells = String.split_on_char ',' w in
  if List.length cells <> Array.length sp.specs then None
  else
    match List.mapi (fun i c -> Dataset.Runlog.value_of_string sp.specs.(i) c) cells with
    | exception Failure _ -> None
    | values ->
        let config = Array.of_list values in
        if Param.Space.validate sp.flat.Flat.space config && config_to_wire sp.specs config = w
        then Some (answer sp config)
        else None

let mixed_spaces layers =
  let build label make =
    let table, dt = timed make in
    add layers.Layers.table_build_ms (dt *. 1000.);
    layers.Layers.rows <- layers.Layers.rows + Dataset.Table.size table;
    (label, table)
  in
  let tables =
    [
      build "kripke" Hpcsim.Kripke.exec_table;
      build "openatom" Hpcsim.Openatom.table;
      build "lulesh" Hpcsim.Lulesh.table;
      build "tensor" Hpcsim.Tensor.table;
    ]
  in
  List.map
    (fun (label, table) ->
      if label = "tensor" then
        space_of_table ~label ~outcome:(fun c _ -> Hpcsim.Tensor.outcome c) table
      else space_of_table ~label table)
    tables

(* ---- the client policy, shared by the served and the direct runs ---- *)

type action = Ask | Answer of int  (** index into the in-flight list *)

let next_action pick ~in_flight ~waiting =
  if waiting || in_flight >= k then Answer (Random.State.int pick in_flight) else Ask

(* The [i]th element and the list without it. *)
let rec take i = function
  | [] -> invalid_arg "take"
  | x :: rest when i = 0 -> (x, rest)
  | x :: rest ->
      let y, rest = take (i - 1) rest in
      (y, x :: rest)

let reported_verdict (a : answer) =
  let outcome =
    match a.value with
    | Some y -> Resilience.Outcome.Value y
    | None -> Resilience.Outcome.Infeasible "reported failure"
  in
  {
    Resilience.Evaluator.outcome;
    attempts = 1;
    retry_cost = Resilience.Policy.total_backoff Resilience.Policy.default ~attempts:1;
  }

let best_to_wire = function None -> "none" | Some (_, v) -> Printf.sprintf "%.17g" v

(* The uninterrupted reference: the same client policy driving an
   [Async k] campaign in process, with no server and no crash. Returns
   the best as the server renders it. *)
let direct ?span sp ~seed ~pick_seed ~budget =
  let options = { Hiperbot.Campaign.default_options with n_init } in
  let c =
    Hiperbot.Campaign.create ?telemetry:(Layers.telemetry span) ~options ~shared_pool:sp.pool
      ~mode:(Hiperbot.Campaign.Async k) ~rng:(Prng.Rng.create seed)
      ~space:sp.flat.Flat.space ~budget ()
  in
  let pick = Random.State.make [| pick_seed |] in
  let rec loop in_flight waiting =
    match next_action pick ~in_flight:(List.length in_flight) ~waiting with
    | Answer i ->
        let (id, a), rest = take i in_flight in
        Layers.report span c ~id (reported_verdict a);
        loop rest false
    | Ask -> (
        match Layers.suggest span c with
        | Hiperbot.Campaign.Suggest s ->
            let a = answer sp s.Hiperbot.Campaign.config in
            loop (in_flight @ [ (s.Hiperbot.Campaign.id, a) ]) false
        | Hiperbot.Campaign.Wait ->
            if in_flight = [] then failwith "Wait with nothing in flight";
            loop in_flight true
        | Hiperbot.Campaign.Finished -> ())
  in
  loop [] false;
  best_to_wire (Hiperbot.Campaign.best c)

(* ---- the served run ---- *)

type session = {
  name : string;
  sp : space;
  seed : int;
  pick_seed : int;
  pick : Random.State.t;
  budget : int;
  mutable in_flight : (int * string * answer) list;
      (** id, wire configuration and its verdict, oldest first *)
  mutable lost : (int * string) list;  (** in flight at the crash, expected back in order *)
  mutable waiting : bool;
  mutable evaluated : int;
  mutable paused : bool;
  mutable finished : bool;
  mutable best : string;
  mutable history : (Param.Config.t * float) list;  (** feasible verdicts, newest first *)
  mutable reports : int;
  mutable first_within : int;  (** report ordinal first within 5% of the optimum; 0: none yet *)
  mutable server_s : float;  (** summed latency of this session's requests *)
}

type stats = {
  layers : Layers.t;
  suggest_us : samples;
  report_us : samples;
  mutable windows : ((int * int) * (int * int)) list;
      (** per cycle, the slices of [suggest_us] and [report_us] it filled *)
  recovery_ms : samples;
  session_ms : samples;
  mutable requests : int;
  mutable failed : int;
  mutable accepted : int;
  mutable infeasible : int;
  mutable problems : string list;
}

let stats layers =
  {
    layers;
    suggest_us = samples ();
    report_us = samples ();
    windows = [];
    recovery_ms = samples ();
    session_ms = samples ();
    requests = 0;
    failed = 0;
    accepted = 0;
    infeasible = 0;
    problems = [];
  }

let problem st msg =
  st.failed <- st.failed + 1;
  if List.length st.problems < 8 then st.problems <- msg :: st.problems

let send st server s line =
  let r, dt = timed (fun () -> Hiperbot.Serve.handle server line) in
  st.requests <- st.requests + 1;
  s.server_s <- s.server_s +. dt;
  (r, dt)

let words r = String.split_on_char ' ' r

(* A reply that is not the expected [ok] form: an unexpected [err], or
   a reply the protocol does not allow. Either way the session stops. *)
let unexpected st s line reply =
  if String.length reply >= 3 && String.sub reply 0 3 = "err" then
    st.layers.Layers.err_unexpected <- st.layers.Layers.err_unexpected + 1;
  problem st (Printf.sprintf "%S -> %S" line reply);
  s.finished <- true

let malformed_line gen s =
  let id = match s.in_flight with (id, _, _) :: _ -> id | [] -> 0 in
  match Random.State.int gen 8 with
  | 0 -> Printf.sprintf "report %s x%d ok:1" s.name id
  | 1 -> Printf.sprintf "report %s %d ok:1" s.name (1_000_000 + id)
  | 2 -> "suggest"
  | 3 -> Printf.sprintf "launch %s" s.name
  | 4 -> Printf.sprintf "open %s seed=%d budget=%d space=%s" s.name s.seed s.budget s.sp.wire
  | 5 -> Printf.sprintf "report %s %d fail:meltdown" s.name id
  | 6 -> Printf.sprintf "status %s.missing" s.name
  | _ -> Printf.sprintf "report %s %d ok:nan" s.name id

let malformed st server gen s =
  let line = malformed_line gen s in
  let r, _ = send st server s line in
  if String.length r >= 4 && String.sub r 0 4 = "err " then
    st.layers.Layers.err_expected <- st.layers.Layers.err_expected + 1
  else problem st (Printf.sprintf "malformed %S answered %S" line r)

let status st server s =
  let line = "status " ^ s.name in
  let r, dt = send st server s line in
  add st.layers.Layers.status_us (dt *. 1e6);
  match words r with
  | "ok" :: "status" :: _ :: _ :: ev :: _ when ev = Printf.sprintf "evaluated=%d" s.evaluated -> ()
  | _ -> unexpected st s line r

let ask st server s =
  let line = "suggest " ^ s.name in
  let r, dt = send st server s line in
  add st.suggest_us (dt *. 1e6);
  st.layers.Layers.suggest_requests <- st.layers.Layers.suggest_requests + 1;
  match words r with
  | [ "ok"; "suggest"; _; id; cfg ] -> (
      let id = int_of_string id in
      (match s.lost with
      | (lid, lcfg) :: rest ->
          if lid <> id || lcfg <> cfg then problem st ("re-delivered suggestion differs: " ^ r);
          s.lost <- rest
      | [] -> ());
      match answer_of_wire s.sp cfg with
      | Some a -> s.in_flight <- s.in_flight @ [ (id, cfg, a) ]
      | None -> unexpected st s line r)
  | [ "ok"; "wait"; _ ] ->
      st.layers.Layers.wait_replies <- st.layers.Layers.wait_replies + 1;
      if s.in_flight = [] then unexpected st s line r else s.waiting <- true
  | [ "ok"; "finished"; _; ev; best ] ->
      s.finished <- true;
      if ev <> Printf.sprintf "evaluated=%d" s.budget || s.in_flight <> [] || s.lost <> [] then
        problem st (Printf.sprintf "%s finished with %s" s.name ev);
      s.best <- String.sub best 5 (String.length best - 5)
  | _ -> unexpected st s line r

let answer st server s i =
  let (id, _, a), rest = take i s.in_flight in
  s.in_flight <- rest;
  s.waiting <- false;
  let line = Printf.sprintf "report %s %d %s" s.name id a.word in
  let r, dt = send st server s line in
  add st.report_us (dt *. 1e6);
  match words r with
  | [ "ok"; "reported"; _; _; ev ] ->
      s.evaluated <- int_of_string (String.sub ev 10 (String.length ev - 10));
      st.accepted <- st.accepted + 1;
      s.reports <- s.reports + 1;
      (match a.value with
      | Some y ->
          s.history <- (a.config, y) :: s.history;
          if s.first_within = 0 && y <= s.sp.optimum *. 1.05 then s.first_within <- s.reports
      | None -> st.infeasible <- st.infeasible + 1)
  | _ -> unexpected st s line r

let turn st server gen ~crash s =
  if Random.State.float gen 1. < malformed_rate then malformed st server gen s;
  if Random.State.float gen 1. < status_rate then status st server s;
  if crash && s.evaluated >= s.budget / 2 && List.length s.in_flight = k then s.paused <- true
  else
    match next_action s.pick ~in_flight:(List.length s.in_flight) ~waiting:s.waiting with
    | Ask -> ask st server s
    | Answer i -> answer st server s i

let rec run_phase st server gen ~crash sessions =
  match List.filter (fun s -> not (s.finished || s.paused)) sessions with
  | [] -> ()
  | active ->
      List.iter (turn st server gen ~crash) active;
      run_phase st server gen ~crash sessions

let open_line s =
  Printf.sprintf "open %s seed=%d budget=%d k=%d n_init=%d space=%s" s.name s.seed s.budget k
    n_init s.sp.wire

let runlog_path dir s = Filename.concat dir (s.name ^ ".runlog")

(* One cycle: open every session, run to half budget, crash, reopen
   from the run logs, run to the end and close. With [trace], the
   crashed logs are also loaded and replayed directly, to time the
   runlog and replay layers under the recovery. *)
let cycle st ~trace ~dir ~gen ~budget ~id plan =
  let sessions =
    List.concat_map
      (fun (sp, n) ->
        List.init n (fun i ->
            let pick_seed = Random.State.bits gen in
            {
              name = Printf.sprintf "c%d-%s-%d-%06x" id sp.label i (Random.State.bits gen land 0xffffff);
              sp;
              seed = Random.State.bits gen;
              pick_seed;
              pick = Random.State.make [| pick_seed |];
              budget;
              in_flight = [];
              lost = [];
              waiting = false;
              evaluated = 0;
              paused = false;
              finished = false;
              best = "";
              history = [];
              reports = 0;
              first_within = 0;
              server_s = 0.;
            }))
      plan
  in
  let suggests0 = count st.suggest_us and reports0 = count st.report_us in
  let server = Hiperbot.Serve.create ~dir () in
  List.iter
    (fun s ->
      let line = open_line s in
      let r, dt = send st server s line in
      add st.layers.Layers.open_us (dt *. 1e6);
      if r <> Printf.sprintf "ok open %s evaluated=0 pending=0" s.name then unexpected st s line r)
    sessions;
  run_phase st server gen ~crash:true sessions;
  (* The crash: the server is dropped without [close]; only what the
     run logs hold survives. *)
  if trace then
    List.iter
      (fun s ->
        let log, load_s = timed (fun () -> Dataset.Runlog.load ~recover:true (runlog_path dir s)) in
        let options = { Hiperbot.Campaign.default_options with n_init } in
        let _, replay_s =
          timed (fun () ->
              Hiperbot.Campaign.of_log ~options ~shared_pool:s.sp.pool
                ~mode:(Hiperbot.Campaign.Async k) ~log ~budget ())
        in
        add st.layers.Layers.load_ms (load_s *. 1000.);
        add st.layers.Layers.replay_ms (replay_s *. 1000.))
      sessions;
  let crashed = server in
  let server = Hiperbot.Serve.create ~dir () in
  List.iter
    (fun s ->
      if not s.finished then begin
        let line = open_line s in
        let r, dt = send st server s line in
        add st.recovery_ms (dt *. 1000.);
        (* The recovered campaign holds the suggestions that were in
           flight at its last logged report; the client asks again for
           the rest and must get the same ones back. *)
        (match words r with
        | [ "ok"; "open"; _; ev; pending ]
          when ev = Printf.sprintf "evaluated=%d" s.evaluated
               && List.mem pending (List.init (k + 1) (Printf.sprintf "pending=%d")) ->
            ()
        | _ -> unexpected st s line r);
        s.lost <- List.map (fun (id, cfg, _) -> (id, cfg)) s.in_flight;
        s.in_flight <- [];
        s.waiting <- false;
        s.paused <- false;
        status st server s
      end)
    sessions;
  run_phase st server gen ~crash:false sessions;
  List.iter
    (fun s ->
      let line = "close " ^ s.name in
      let r, _ = send st server s line in
      if r <> "ok closed " ^ s.name then unexpected st s line r;
      add st.session_ms (s.server_s *. 1000.))
    sessions;
  st.layers.Layers.pools <- max st.layers.Layers.pools (Hiperbot.Serve.n_pools server);
  st.windows <-
    ((suggests0, count st.suggest_us), (reports0, count st.report_us)) :: st.windows;
  (* Only now release the crashed server's file handles, so that a long
     run does not pile them up; its logs are deleted next anyway. *)
  Hiperbot.Serve.close_all crashed;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  sessions

let history s = Array.of_list (List.rev s.history)

let evals_to_within s = if s.first_within = 0 then s.budget + 1 else s.first_within
