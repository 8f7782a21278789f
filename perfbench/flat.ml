(* A fully evaluated table reduced to what the timed phase needs: the
   objective in a flat float array indexed by configuration rank, and
   the paper's top-5% good set as a bool array over the same ranks.

   A [Dataset.Table.t] keeps every configuration and a hash index on
   the major heap, where each major collection marks them again. That
   is the simulated application's memory, not the tuner's: a real
   objective is a run on the machine. So set-up builds the table,
   copies it here and drops it, and the timed phase's heap and
   collections are the tuner's own. A float array is never scanned.

   The lookups return the table's own floats, so every campaign is bit
   for bit the one it would be over the table. *)

type t = {
  space : Param.Space.t;
  values : float array;  (** objective by configuration rank *)
  good : Metrics.Recall.good_set;  (** paper eq. 11, the best 5% of rows *)
  best : float;  (** the table's smallest objective *)
}

let of_table table =
  let space = Dataset.Table.space table in
  let n = Dataset.Table.size table in
  if Param.Space.cardinality space <> Some n then
    invalid_arg "Flat.of_table: the table does not cover its space";
  let g = Metrics.Recall.percentile_good_set table 0.05 in
  let values = Array.make n nan and good = Array.make n false in
  for i = 0 to n - 1 do
    let c = Dataset.Table.config table i in
    let r = Param.Space.config_rank space c in
    values.(r) <- Dataset.Table.objective table i;
    good.(r) <- g.test c
  done;
  let test c = Param.Space.validate space c && good.(Param.Space.config_rank space c) in
  { space; values; good = { test; count = g.count }; best = Dataset.Table.best_value table }

let size t = Array.length t.values

(* A table covering its space holds every valid configuration. *)
let mem t c = Param.Space.validate t.space c
let objective t c = t.values.(Param.Space.config_rank t.space c)
