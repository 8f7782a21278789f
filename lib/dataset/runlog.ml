type failure_kind = Crash | Transient | Permanent | Timeout | Infeasible
type status = Ok of float | Failed of failure_kind

let failure_kinds = [ Crash; Transient; Permanent; Timeout; Infeasible ]
type entry = { index : int; config : Param.Config.t; status : status; attempts : int }

type gate = { g_refit : int; g_source : int; g_action : string; g_trust : float; g_below : int }

type fid = { f_bracket : int; f_rung : int; f_value : float; f_config : Param.Config.t }

type rung = {
  r_bracket : int;
  r_rung : int;
  r_evaluated : int;
  r_promoted : int;
  r_best : float;
}

type obj = { o_index : int; o_values : float array }

type t = {
  name : string;
  seed : int;
  space : Param.Space.t;
  entries : entry array;
  gates : gate array;
  fids : fid array;
  rungs : rung array;
  objs : obj array;
}

let gate_actions = [ "attenuate"; "restore"; "drop"; "fallback" ]

let validate_gate g =
  if g.g_refit < 0 then invalid_arg "Runlog: gate refit must be non-negative";
  if g.g_source < -1 then invalid_arg "Runlog: gate source must be >= -1";
  if not (List.mem g.g_action gate_actions) then
    invalid_arg (Printf.sprintf "Runlog: unknown gate action %S" g.g_action);
  if not (Float.is_finite g.g_trust) then invalid_arg "Runlog: gate trust must be finite";
  if g.g_below < 0 then invalid_arg "Runlog: gate below-count must be non-negative"

let gate_equal a b =
  a.g_refit = b.g_refit && a.g_source = b.g_source && a.g_action = b.g_action
  && Float.equal a.g_trust b.g_trust
  && a.g_below = b.g_below

let validate_fid f =
  if f.f_bracket < 0 then invalid_arg "Runlog: fid bracket must be non-negative";
  if f.f_rung < 0 then invalid_arg "Runlog: fid rung must be non-negative";
  if not (Float.is_finite f.f_value) then invalid_arg "Runlog: fid value must be finite"

let fid_equal a b =
  a.f_bracket = b.f_bracket && a.f_rung = b.f_rung
  && Float.equal a.f_value b.f_value
  && a.f_config = b.f_config

let validate_rung r =
  if r.r_bracket < 0 then invalid_arg "Runlog: rung bracket must be non-negative";
  if r.r_rung < 0 then invalid_arg "Runlog: rung index must be non-negative";
  if r.r_evaluated < 1 then invalid_arg "Runlog: rung evaluated-count must be positive";
  if r.r_promoted < 0 || r.r_promoted > r.r_evaluated then
    invalid_arg "Runlog: rung promoted-count must lie in [0, evaluated]";
  if not (Float.is_finite r.r_best) then invalid_arg "Runlog: rung best must be finite"

let rung_equal a b =
  a.r_bracket = b.r_bracket && a.r_rung = b.r_rung && a.r_evaluated = b.r_evaluated
  && a.r_promoted = b.r_promoted
  && Float.equal a.r_best b.r_best

let validate_obj o =
  if o.o_index < 0 then invalid_arg "Runlog: obj index must be non-negative";
  if Array.length o.o_values = 0 then invalid_arg "Runlog: obj needs at least one objective";
  Array.iter
    (fun v -> if not (Float.is_finite v) then invalid_arg "Runlog: obj values must be finite")
    o.o_values

let obj_equal a b =
  a.o_index = b.o_index
  && Array.length a.o_values = Array.length b.o_values
  && Array.for_all2 Float.equal a.o_values b.o_values

let create ?(gates = []) ?(fids = []) ?(rungs = []) ?(objs = []) ~name ~seed ~space entries =
  let entries = Array.of_list entries in
  Array.sort (fun a b -> compare a.index b.index) entries;
  Array.iteri
    (fun i e ->
      if not (Param.Space.validate space e.config) then
        invalid_arg "Runlog.create: invalid configuration";
      if e.attempts < 1 then invalid_arg "Runlog.create: attempts must be at least 1";
      if i > 0 && entries.(i - 1).index = e.index then invalid_arg "Runlog.create: duplicate index")
    entries;
  (* Gate decisions keep their given (chronological) order: resume
     verification matches them as a prefix against the recomputed
     decision stream, so reordering here would manufacture divergence. *)
  let gates = Array.of_list gates in
  Array.iter validate_gate gates;
  (* Fidelity streams follow the same rule as gates: chronological
     order is the prefix that resume verification replays against. *)
  let fids = Array.of_list fids in
  Array.iter
    (fun f ->
      validate_fid f;
      if not (Param.Space.validate space f.f_config) then
        invalid_arg "Runlog.create: invalid fid configuration")
    fids;
  let rungs = Array.of_list rungs in
  Array.iter validate_rung rungs;
  (* Objective vectors are keyed by entry index, so index order is the
     canonical one (unlike the chronological gate/fid streams). *)
  let objs = Array.of_list objs in
  Array.sort (fun a b -> compare a.o_index b.o_index) objs;
  Array.iteri
    (fun i o ->
      validate_obj o;
      if i > 0 then begin
        if objs.(i - 1).o_index = o.o_index then invalid_arg "Runlog: duplicate obj index";
        if Array.length objs.(i - 1).o_values <> Array.length o.o_values then
          invalid_arg "Runlog: obj rows must agree on the objective count"
      end)
    objs;
  { name; seed; space; entries; gates; fids; rungs; objs }

type recorder = { r_name : string; r_seed : int; r_space : Param.Space.t; mutable acc : entry list }

let recorder ~name ~seed ~space = { r_name = name; r_seed = seed; r_space = space; acc = [] }

let record_entry r entry = r.acc <- entry :: r.acc

let record_evaluation r index config value =
  record_entry r { index; config; status = Ok value; attempts = 1 }

let record_failure ?(kind = Crash) ?(attempts = 1) r index config =
  record_entry r { index; config; status = Failed kind; attempts }

let finish r = create ~name:r.r_name ~seed:r.r_seed ~space:r.r_space r.acc

let history t =
  Array.of_list
    (List.filter_map
       (fun e -> match e.status with Ok y -> Some (e.config, y) | Failed _ -> None)
       (Array.to_list t.entries))

let best t =
  Array.fold_left
    (fun acc e ->
      match (e.status, acc) with
      | Failed _, _ -> acc
      | Ok y, Some (_, by) when by <= y -> acc
      | Ok y, _ -> Some (e.config, y))
    None t.entries

let count_kind t kind =
  Array.fold_left
    (fun n e -> match e.status with Failed k when k = kind -> n + 1 | _ -> n)
    0 t.entries

(* ---- serialization ---- *)

let failure_kind_to_string = function
  | Crash -> "failed"
  | Transient -> "transient"
  | Permanent -> "permanent"
  | Timeout -> "timeout"
  | Infeasible -> "infeasible"

let failure_kind_of_string = function
  | "failed" -> Some Crash
  | "transient" -> Some Transient
  | "permanent" -> Some Permanent
  | "timeout" -> Some Timeout
  | "infeasible" -> Some Infeasible
  | _ -> None

(* The spec codec doubles as the wire format of the serve protocol's
   space descriptions, so it is exported ([spec_to_string] /
   [spec_of_string]) rather than private to the #spec header lines. *)
let spec_to_string spec =
  let name = Param.Spec.name spec in
  if String.contains name '=' || String.contains name ',' || String.contains name ':' then
    invalid_arg "Runlog: parameter names may not contain '=', ':' or ','";
  match Param.Spec.domain spec with
  | Param.Spec.Categorical labels ->
      Array.iter
        (fun l ->
          if String.contains l ',' then invalid_arg "Runlog: labels may not contain ','")
        labels;
      Printf.sprintf "%s=cat:%s" name (String.concat "," (Array.to_list labels))
  | Param.Spec.Ordinal levels ->
      Printf.sprintf "%s=ord:%s" name
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") levels)))
  | Param.Spec.Permutation n -> Printf.sprintf "%s=perm:%d" name n
  | Param.Spec.Continuous _ -> invalid_arg "Runlog: continuous parameters are not supported"

let spec_header spec = "#spec " ^ spec_to_string spec

let header_string ~version ~name ~seed ~specs =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "#runlog v%d\n" version);
  Buffer.add_string buf (Printf.sprintf "#name %s\n" name);
  Buffer.add_string buf (Printf.sprintf "#seed %d\n" seed);
  Array.iter (fun spec -> Buffer.add_string buf (spec_header spec ^ "\n")) specs;
  Buffer.add_string buf "index";
  Array.iter (fun spec -> Buffer.add_string buf ("," ^ Param.Spec.name spec)) specs;
  Buffer.add_string buf ",objective,status";
  if version >= 2 then Buffer.add_string buf ",attempts";
  Buffer.add_char buf '\n';
  Buffer.contents buf

let entry_row ~version ~specs e =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int e.index);
  Array.iteri
    (fun i v -> Buffer.add_string buf ("," ^ Param.Spec.value_to_string specs.(i) v))
    e.config;
  (match e.status with
  | Ok y -> Buffer.add_string buf (Printf.sprintf ",%.17g,ok" y)
  | Failed kind -> Buffer.add_string buf (",," ^ failure_kind_to_string kind));
  if version >= 2 then Buffer.add_string buf ("," ^ string_of_int e.attempts);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Trust values are serialized as hex floats so a resumed campaign
   verifies its recomputed gate decisions against bit-exact recorded
   ones — "%.17g" round-trips too, but hex is unambiguous about it. *)
let gate_row g =
  Printf.sprintf "#gate %d,%d,%s,%h,%d\n" g.g_refit g.g_source g.g_action g.g_trust g.g_below

(* Low-fidelity observations and rung-closure decisions carry their
   objective values as hex floats for the same bit-exactness reason. *)
let fid_row ~specs f =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "#fid %d,%d,%h" f.f_bracket f.f_rung f.f_value);
  Array.iteri
    (fun i v -> Buffer.add_string buf ("," ^ Param.Spec.value_to_string specs.(i) v))
    f.f_config;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let rung_row r =
  Printf.sprintf "#rung %d,%d,%d,%d,%h\n" r.r_bracket r.r_rung r.r_evaluated r.r_promoted r.r_best

(* Objective vectors (multi-objective campaigns) are keyed by the
   entry index they annotate; hex floats keep scalarisation replay
   bit-exact across a save/resume cycle. *)
let obj_row o =
  let buf = Buffer.create 48 in
  Buffer.add_string buf (Printf.sprintf "#obj %d" o.o_index);
  Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%h" v)) o.o_values;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let to_string ?(version = 2) t =
  if version <> 1 && version <> 2 then invalid_arg "Runlog.to_string: unknown format version";
  let specs = Param.Space.specs t.space in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header_string ~version ~name:t.name ~seed:t.seed ~specs);
  Array.iter (fun e -> Buffer.add_string buf (entry_row ~version ~specs e)) t.entries;
  (* v1 predates gating and fidelity; like the attempts column, those
     lines are dropped from a v1 rendering. *)
  if version >= 2 then begin
    Array.iter (fun g -> Buffer.add_string buf (gate_row g)) t.gates;
    Array.iter (fun f -> Buffer.add_string buf (fid_row ~specs f)) t.fids;
    Array.iter (fun r -> Buffer.add_string buf (rung_row r)) t.rungs;
    Array.iter (fun o -> Buffer.add_string buf (obj_row o)) t.objs
  end;
  Buffer.contents buf

let spec_of_string s =
  (* "name=kind:v1,v2,..." *)
  match String.index_opt s '=' with
  | None -> failwith "Runlog: malformed #spec line"
  | Some eq ->
      let line = s in
      let name = String.sub line 0 eq in
      let rest = String.sub line (eq + 1) (String.length line - eq - 1) in
      let kind, values =
        match String.index_opt rest ':' with
        | None -> failwith "Runlog: malformed #spec line"
        | Some colon ->
            ( String.sub rest 0 colon,
              String.split_on_char ',' (String.sub rest (colon + 1) (String.length rest - colon - 1)) )
      in
      (match kind with
      | "cat" -> Param.Spec.categorical name values
      | "ord" ->
          Param.Spec.ordinal_floats name
            (List.map
               (fun s ->
                 match float_of_string_opt s with
                 | Some f -> f
                 | None -> failwith "Runlog: malformed ordinal level")
               values)
      | "perm" -> begin
          match values with
          | [ v ] -> (
              match int_of_string_opt (String.trim v) with
              | Some n -> (
                  match Param.Spec.permutation name n with
                  | spec -> spec
                  | exception Invalid_argument msg -> failwith msg)
              | None -> failwith "Runlog: malformed permutation size")
          | _ -> failwith "Runlog: malformed #spec line"
        end
      | _ -> failwith (Printf.sprintf "Runlog: unknown spec kind %S" kind))

let parse_spec_header line = spec_of_string (String.sub line 6 (String.length line - 6))

let value_of_string spec s =
  match Param.Spec.domain spec with
  | Param.Spec.Categorical labels ->
      let rec find i =
        if i = Array.length labels then failwith (Printf.sprintf "Runlog: unknown label %S" s)
        else if labels.(i) = s then Param.Value.Categorical i
        else find (i + 1)
      in
      find 0
  | Param.Spec.Ordinal levels ->
      let x =
        match float_of_string_opt s with
        | Some x -> x
        | None -> failwith (Printf.sprintf "Runlog: malformed level %S" s)
      in
      let rec find i =
        if i = Array.length levels then failwith (Printf.sprintf "Runlog: unknown level %S" s)
        else if Float.abs (levels.(i) -. x) <= 1e-9 *. Float.max 1. (Float.abs levels.(i)) then
          Param.Value.Ordinal i
        else find (i + 1)
      in
      find 0
  | Param.Spec.Permutation n -> begin
      match Param.Spec.permutation_of_string n s with
      | v -> v
      | exception Invalid_argument _ ->
          failwith (Printf.sprintf "Runlog: malformed permutation %S" s)
    end
  | Param.Spec.Continuous _ -> assert false

let of_string ?(recover = false) text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "") in
  let version, rest =
    match lines with
    | magic :: rest when String.trim magic = "#runlog v1" -> (1, rest)
    | magic :: rest when String.trim magic = "#runlog v2" -> (2, rest)
    | _ -> failwith "Runlog: missing '#runlog v1' magic"
  in
  let name = ref "" and seed = ref 0 and specs = ref [] in
  let rec headers = function
    | line :: rest when String.length line > 0 && line.[0] = '#' ->
        (if String.length line > 6 && String.sub line 0 6 = "#name " then
           name := String.sub line 6 (String.length line - 6)
         else if String.length line > 6 && String.sub line 0 6 = "#seed " then
           seed :=
             (match int_of_string_opt (String.trim (String.sub line 6 (String.length line - 6))) with
             | Some s -> s
             | None -> failwith "Runlog: malformed #seed line")
         else if String.length line > 6 && String.sub line 0 6 = "#spec " then
           specs := parse_spec_header line :: !specs
         else failwith (Printf.sprintf "Runlog: unknown header %S" line));
        headers rest
    | rest -> rest
  in
  let body = headers rest in
  let space = Param.Space.make (List.rev !specs) in
  let spec_arr = Param.Space.specs space in
  let n_params = Array.length spec_arr in
  let n_fields = n_params + (if version >= 2 then 4 else 3) in
  let parse_row line =
    let fields = String.split_on_char ',' line |> Array.of_list in
    if Array.length fields <> n_fields then
      failwith
        (Printf.sprintf "Runlog: row has %d fields, expected %d" (Array.length fields) n_fields);
    let index =
      match int_of_string_opt fields.(0) with
      | Some i -> i
      | None -> failwith "Runlog: malformed index"
    in
    let config = Array.init n_params (fun i -> value_of_string spec_arr.(i) fields.(i + 1)) in
    let status =
      match String.trim fields.(n_params + 2) with
      | "ok" -> begin
          match float_of_string_opt fields.(n_params + 1) with
          | Some y -> Ok y
          | None -> failwith "Runlog: ok row without objective"
        end
      | other -> begin
          match failure_kind_of_string other with
          | Some kind -> Failed kind
          | None -> failwith (Printf.sprintf "Runlog: unknown status %S" other)
        end
    in
    let attempts =
      if version >= 2 then
        match int_of_string_opt (String.trim fields.(n_params + 3)) with
        | Some a when a >= 1 -> a
        | Some _ | None -> failwith "Runlog: malformed attempts"
      else 1
    in
    { index; config; status; attempts }
  in
  let is_gate_line line = String.length line >= 6 && String.sub line 0 6 = "#gate " in
  let parse_gate_row line =
    (* "#gate refit,source,action,trust,below" — trust is a hex float *)
    match String.split_on_char ',' (String.sub line 6 (String.length line - 6)) with
    | [ refit; source; action; trust; below ] ->
        let int_of what s =
          match int_of_string_opt (String.trim s) with
          | Some i -> i
          | None -> failwith (Printf.sprintf "Runlog: malformed gate %s" what)
        in
        let trust =
          match float_of_string_opt (String.trim trust) with
          | Some t -> t
          | None -> failwith "Runlog: malformed gate trust"
        in
        let g =
          {
            g_refit = int_of "refit" refit;
            g_source = int_of "source" source;
            g_action = String.trim action;
            g_trust = trust;
            g_below = int_of "below" below;
          }
        in
        (match validate_gate g with
        | () -> g
        | exception Invalid_argument msg -> failwith msg)
    | _ -> failwith "Runlog: malformed #gate line"
  in
  let is_fid_line line = String.length line >= 5 && String.sub line 0 5 = "#fid " in
  let parse_fid_row line =
    (* "#fid bracket,rung,value,v1,v2,..." — value is a hex float *)
    match String.split_on_char ',' (String.sub line 5 (String.length line - 5)) with
    | bracket :: rung :: value :: config when List.length config = n_params ->
        let int_of what s =
          match int_of_string_opt (String.trim s) with
          | Some i -> i
          | None -> failwith (Printf.sprintf "Runlog: malformed fid %s" what)
        in
        let value =
          match float_of_string_opt (String.trim value) with
          | Some v -> v
          | None -> failwith "Runlog: malformed fid value"
        in
        let config = Array.of_list config in
        let f =
          {
            f_bracket = int_of "bracket" bracket;
            f_rung = int_of "rung" rung;
            f_value = value;
            f_config = Array.init n_params (fun i -> value_of_string spec_arr.(i) config.(i));
          }
        in
        (match validate_fid f with
        | () -> f
        | exception Invalid_argument msg -> failwith msg)
    | _ -> failwith "Runlog: malformed #fid line"
  in
  let is_rung_line line = String.length line >= 6 && String.sub line 0 6 = "#rung " in
  let parse_rung_row line =
    (* "#rung bracket,rung,evaluated,promoted,best" — best is a hex float *)
    match String.split_on_char ',' (String.sub line 6 (String.length line - 6)) with
    | [ bracket; rung; evaluated; promoted; best ] ->
        let int_of what s =
          match int_of_string_opt (String.trim s) with
          | Some i -> i
          | None -> failwith (Printf.sprintf "Runlog: malformed rung %s" what)
        in
        let best =
          match float_of_string_opt (String.trim best) with
          | Some b -> b
          | None -> failwith "Runlog: malformed rung best"
        in
        let r =
          {
            r_bracket = int_of "bracket" bracket;
            r_rung = int_of "rung" rung;
            r_evaluated = int_of "evaluated" evaluated;
            r_promoted = int_of "promoted" promoted;
            r_best = best;
          }
        in
        (match validate_rung r with
        | () -> r
        | exception Invalid_argument msg -> failwith msg)
    | _ -> failwith "Runlog: malformed #rung line"
  in
  let is_obj_line line = String.length line >= 5 && String.sub line 0 5 = "#obj " in
  let parse_obj_row line =
    (* "#obj index,v1,v2,..." — values are hex floats *)
    match String.split_on_char ',' (String.sub line 5 (String.length line - 5)) with
    | index :: (_ :: _ as values) ->
        let index =
          match int_of_string_opt (String.trim index) with
          | Some i -> i
          | None -> failwith "Runlog: malformed obj index"
        in
        let values =
          Array.of_list
            (List.map
               (fun s ->
                 match float_of_string_opt (String.trim s) with
                 | Some v -> v
                 | None -> failwith "Runlog: malformed obj value")
               values)
        in
        let o = { o_index = index; o_values = values } in
        (match validate_obj o with
        | () -> o
        | exception Invalid_argument msg -> failwith msg)
    | _ -> failwith "Runlog: malformed #obj line"
  in
  match body with
  | [] -> failwith "Runlog: missing column header"
  | _header :: rows ->
      (* With [recover], a parse failure on the *final* row — the
         signature of a crash mid-write — drops that row; failures
         anywhere else still abort. Gate, fid and rung lines
         interleave with evaluation rows in write order; each stream
         keeps its own chronological order. *)
      let n_rows = List.length rows in
      let entries = ref [] in
      let gates = ref [] in
      let fids = ref [] in
      let rungs = ref [] in
      let objs = ref [] in
      List.iteri
        (fun i line ->
          match
            if is_gate_line line then gates := parse_gate_row line :: !gates
            else if is_fid_line line then fids := parse_fid_row line :: !fids
            else if is_rung_line line then rungs := parse_rung_row line :: !rungs
            else if is_obj_line line then objs := parse_obj_row line :: !objs
            else entries := parse_row line :: !entries
          with
          | () -> ()
          | exception Failure msg -> if not (recover && i = n_rows - 1) then failwith msg)
        rows;
      create ~gates:(List.rev !gates) ~fids:(List.rev !fids) ~rungs:(List.rev !rungs)
        ~objs:(List.rev !objs) ~name:!name ~seed:!seed ~space (List.rev !entries)

let save t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string t))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ?recover path = of_string ?recover (read_file path)

(* ---- incremental writer ---- *)

type writer = {
  w_oc : out_channel;
  w_path : string;
  w_specs : Param.Spec.t array;
  mutable w_closed : bool;
}

let writer_create ~path ~name ~seed ~space =
  let specs = Param.Space.specs space in
  let header = header_string ~version:2 ~name ~seed ~specs in
  let oc = open_out path in
  output_string oc header;
  flush oc;
  { w_oc = oc; w_path = path; w_specs = specs; w_closed = false }

let writer_resume ~path t =
  (* Rewrite the (recovered) log from scratch: this truncates any
     partial final line left by a crash and upgrades v1 files to v2,
     so subsequent appends always extend a well-formed file. The
     rewrite goes to a sibling file renamed over [path] once flushed,
     so a crash mid-rewrite leaves the recovered log untouched; the
     open channel follows the rename and carries the appends. *)
  let specs = Param.Space.specs t.space in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc (to_string t);
     flush oc;
     Sys.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  { w_oc = oc; w_path = path; w_specs = specs; w_closed = false }

let writer_record w entry =
  if w.w_closed then invalid_arg "Runlog: record on a closed writer";
  output_string w.w_oc (entry_row ~version:2 ~specs:w.w_specs entry);
  flush w.w_oc

let writer_record_gate w g =
  if w.w_closed then invalid_arg "Runlog: record on a closed writer";
  validate_gate g;
  output_string w.w_oc (gate_row g);
  flush w.w_oc

let writer_record_fid w f =
  if w.w_closed then invalid_arg "Runlog: record on a closed writer";
  validate_fid f;
  output_string w.w_oc (fid_row ~specs:w.w_specs f);
  flush w.w_oc

let writer_record_rung w r =
  if w.w_closed then invalid_arg "Runlog: record on a closed writer";
  validate_rung r;
  output_string w.w_oc (rung_row r);
  flush w.w_oc

let writer_record_obj w o =
  if w.w_closed then invalid_arg "Runlog: record on a closed writer";
  validate_obj o;
  output_string w.w_oc (obj_row o);
  flush w.w_oc

let writer_close w =
  if not w.w_closed then begin
    w.w_closed <- true;
    close_out w.w_oc;
    (* Mid-run files interleave #gate lines with evaluation rows in
       write order (each line must hit the disk the moment it exists),
       and a resumed writer's rewrite-then-append produces yet another
       layout. Canonicalize on close — entries sorted by index, gate
       lines last — so a completed log's bytes never depend on how
       many times the campaign was interrupted. The temp-file rename
       keeps even a crash mid-close from corrupting the log. *)
    match of_string (read_file w.w_path) with
    | log ->
        let tmp = w.w_path ^ ".tmp" in
        save log tmp;
        Sys.rename tmp w.w_path
    | exception _ -> ()
  end
