(* Clock, sample buffers, order statistics and the result line. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A growable buffer of float samples. *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 256 0.; n = 0 }

let add s x =
  if s.n = Array.length s.data then begin
    let d = Array.make (max 16 (2 * s.n)) 0. in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let sum s = Array.fold_left ( +. ) 0. (Array.sub s.data 0 s.n)
let mean s = if s.n = 0 then nan else sum s /. float s.n

(* Percentile [p] (0..100) with linear interpolation between the
   closest ranks, as numpy's default does. *)
let percentile s p =
  if s.n = 0 then nan
  else begin
    let a = Array.sub s.data 0 s.n in
    Array.sort compare a;
    let r = p /. 100. *. float (s.n - 1) in
    let lo = int_of_float (Float.floor r) in
    let hi = min (lo + 1) (s.n - 1) in
    a.(lo) +. ((r -. float lo) *. (a.(hi) -. a.(lo)))
  end

let median s = percentile s 50.

(* The tail: the highest percentile of this ladder that still has at
   least ten samples beyond it, so a tail is never one or two outliers. *)
let tail_percentile n =
  List.find_opt (fun p -> float n *. (1. -. (p /. 100.)) >= 10.) [ 99.9; 99.; 90.; 75. ]
  |> Option.value ~default:50.

let tail s =
  let p = tail_percentile s.n in
  (p, percentile s p)

let slice s lo hi = { data = Array.sub s.data lo (hi - lo); n = hi - lo }

(* A fixed integer loop, timed so that a run on a slow machine can be
   told from a slow change. Recorded only; never used to scale. *)
let calibration_ms () =
  let loop () =
    let x = ref 0x2545F491 in
    for i = 1 to 20_000_000 do
      x := (!x * 1103515245) + i;
      x := !x lxor (!x lsr 13)
    done;
    !x
  in
  let runs = samples () in
  for _ = 1 to 5 do
    let r, dt = timed loop in
    ignore (Sys.opaque_identity r);
    add runs (dt *. 1000.)
  done;
  median runs

(* ---- metrics and the result line ---- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;  (** observations behind the value *)
  stat : string;  (** how the value was reduced, e.g. "p50", "p99", "mean" *)
}

let metric ?(stat = "value") ?(samples = 1) name unit_ value =
  { name; value; unit_; samples; stat }

let p50 name unit_ s = metric ~stat:"p50" ~samples:(count s) name unit_ (median s)

let p90 name unit_ s = metric ~stat:"p90" ~samples:(count s) name unit_ (percentile s 90.)

(* The tail of each window (a slice [lo, hi) of [s]), then the median
   over windows: a burst of host stalls moves one window, not the
   metric. *)
let windowed_tail name unit_ s windows =
  let tails = samples () and p = ref 50. in
  List.iter
    (fun (lo, hi) ->
      let p', v = tail (slice s lo hi) in
      p := p';
      add tails v)
    windows;
  metric ~stat:(Printf.sprintf "p%g-median-of-%d" !p (count tails)) ~samples:(count s) name unit_
    (median tails)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
