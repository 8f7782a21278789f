type t = {
  max_attempts : int;
  backoff_base : float;
  backoff_factor : float;
  timeout : float option;
}

let default = { max_attempts = 3; backoff_base = 1.0; backoff_factor = 2.0; timeout = None }
let no_retry = { default with max_attempts = 1 }

let validate t =
  if t.max_attempts < 1 then invalid_arg "Resilience.Policy: max_attempts must be at least 1";
  if t.backoff_base < 0. then invalid_arg "Resilience.Policy: backoff_base must be non-negative";
  if t.backoff_factor < 0. then
    invalid_arg "Resilience.Policy: backoff_factor must be non-negative";
  match t.timeout with
  | Some budget when not (budget > 0.) -> invalid_arg "Resilience.Policy: timeout must be positive"
  | Some _ | None -> ()

let backoff t ~attempt =
  if attempt <= 1 then 0.
  else t.backoff_base *. (t.backoff_factor ** float_of_int (attempt - 2))

let total_backoff t ~attempts =
  let acc = ref 0. in
  for a = 2 to attempts do
    acc := !acc +. backoff t ~attempt:a
  done;
  !acc
