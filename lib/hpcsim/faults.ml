(* Fault draws reuse Noise's (seed, config) hashing; each fault class
   gets its own salted seed stream so the classes are independent, and
   per-attempt draws fold the attempt number into the salt so a retry
   re-rolls the dice (a transient fault can clear on retry) while the
   permanent draw ignores the attempt (a permanent fault never does). *)

type spec = {
  seed : int;
  transient : float;
  permanent : float;
  straggler : float;
  slowdown : float;
}

let none = { seed = 0; transient = 0.; permanent = 0.; straggler = 0.; slowdown = 1. }

let standard ~seed ~rate =
  if not (rate >= 0. && rate <= 1.) then invalid_arg "Faults.standard: rate must be in [0, 1]";
  {
    seed;
    transient = rate;
    permanent = rate /. 4.;
    straggler = rate /. 2.;
    slowdown = 8.;
  }

let validate s =
  let check_rate label r =
    if not (r >= 0. && r <= 1.) then invalid_arg (Printf.sprintf "Faults: %s rate must be in [0, 1]" label)
  in
  check_rate "transient" s.transient;
  check_rate "permanent" s.permanent;
  check_rate "straggler" s.straggler;
  if s.slowdown < 1. then invalid_arg "Faults: slowdown must be at least 1"

let salted seed ~class_ ~attempt = (seed * 0x2545F49) lxor (class_ * 0x9E3779B1) lxor (attempt * 0x85EBCA77)

let inject s objective ~attempt config =
  validate s;
  if s.permanent > 0. && Noise.uniform ~seed:(salted s.seed ~class_:1 ~attempt:0) config < s.permanent
  then Resilience.Outcome.Permanent "injected permanent fault"
  else if s.transient > 0.
          && Noise.uniform ~seed:(salted s.seed ~class_:2 ~attempt) config < s.transient
  then Resilience.Outcome.Transient (Printf.sprintf "injected transient fault (attempt %d)" attempt)
  else begin
    let cost = objective config in
    if s.straggler > 0.
       && Noise.uniform ~seed:(salted s.seed ~class_:3 ~attempt) config < s.straggler
    then Resilience.Outcome.Value (cost *. s.slowdown)
    else Resilience.Outcome.Value cost
  end
