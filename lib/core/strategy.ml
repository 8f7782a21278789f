type t = Ranking | Proposal of { n_candidates : int }

let validate = function
  | Ranking -> ()
  | Proposal { n_candidates } ->
      if n_candidates <= 0 then invalid_arg "Strategy.select: non-positive candidate count"

let default = Ranking
let max_duplicate_redraws = 20

(* Keep the k best (value, score) triples seen so far under the total
   order "higher score first, equal scores resolved toward the smaller
   index". The index is the caller's pool position (Ranking) or an
   insertion counter (Proposal), so ties are explicit and
   deterministic: the same multiset of offers yields the same top-k
   whatever the offer order — which is what makes per-worker
   accumulators mergeable into a schedule-independent result. Entries
   are kept worst-first in a sorted association list; fine for the
   small k of batch selection. *)
module Topk = struct
  type 'a entry = { value : 'a; score : float; index : int }

  type 'a t = {
    k : int;
    mutable entries : 'a entry list;  (* sorted worst-first *)
    mutable size : int;
    mutable next_index : int;
  }

  let create k =
    if k < 1 then invalid_arg "Topk.create: k must be at least 1";
    { k; entries = []; size = 0; next_index = 0 }

  (* [beats a b]: a ranks strictly better than b. *)
  let beats a b = a.score > b.score || (a.score = b.score && a.index < b.index)

  let offer_indexed t value score index =
    let e = { value; score; index } in
    let admit =
      t.size < t.k || (match t.entries with worst :: _ -> beats e worst | [] -> true)
    in
    if admit then begin
      let rec insert = function
        | [] -> [ e ]
        | x :: rest -> if beats e x then x :: insert rest else e :: x :: rest
      in
      t.entries <- insert t.entries;
      if t.size = t.k then t.entries <- List.tl t.entries else t.size <- t.size + 1
    end

  let offer t value score =
    offer_indexed t value score t.next_index;
    t.next_index <- t.next_index + 1

  let to_list_desc t = List.rev_map (fun e -> e.value) t.entries
end

(* Streaming bounded top-k over (score, pool index) pairs: a min-heap
   of at most k entries keyed lexicographically by (score, -index),
   so the root is always the WORST kept entry under Topk's total
   order (score descending, ties toward the smaller index) and each
   offer is one comparison against it. Unlike {!Topk} it never holds
   candidate values, only indices — the ranking scan materializes
   configurations for the final k survivors alone, which is what lets
   a 10^7-row virtual pool rank without allocating per candidate. The
   kept set is the exact top-k under a total order (indices are
   distinct), so the result is offer-order independent and equal to
   {!Topk}'s, tie order included. *)
module Topk_stream = struct
  (* [full]/[worst_score]/[worst_tie] mirror the heap root once k
     entries are held, so the hot-loop admission check is two compares
     against plain fields — no option/tuple from a peek, no boxed
     float crossing a call boundary. They are refreshed on every heap
     mutation, which happens O(k log n) times per scan, not per
     offer. *)
  type t = {
    k : int;
    heap : int Simulate.Heap.t;
    mutable full : bool;
    mutable worst_score : float;
    mutable worst_tie : int;
  }

  let create k =
    if k < 1 then invalid_arg "Topk_stream.create: k must be at least 1";
    { k; heap = Simulate.Heap.create (); full = false; worst_score = neg_infinity; worst_tie = 0 }

  let refresh_worst t =
    match Simulate.Heap.peek_tie t.heap with
    | Some (score, tie, _) ->
        t.worst_score <- score;
        t.worst_tie <- tie
    | None -> assert false

  let offer t score index =
    if not t.full then begin
      Simulate.Heap.push_tie t.heap score (-index) index;
      if Simulate.Heap.length t.heap = t.k then begin
        t.full <- true;
        refresh_worst t
      end
    end
    else if score > t.worst_score || (score = t.worst_score && -index > t.worst_tie) then begin
      ignore (Simulate.Heap.pop_tie t.heap);
      Simulate.Heap.push_tie t.heap score (-index) index;
      refresh_worst t
    end

  let to_desc t =
    let rec drain acc =
      match Simulate.Heap.pop_tie t.heap with
      | None -> acc
      | Some (score, _, index) -> drain ((score, index) :: acc)
    in
    let result = drain [] in
    t.full <- false;
    t.worst_score <- neg_infinity;
    t.worst_tie <- 0;
    result
end

(* Immutable best-first entry lists for the parallel reduction: the
   merge of two k-truncated lists is the k-truncation of their union,
   so the fold is associative with [] as identity and the reduction is
   schedule- and domain-count-independent. *)
let rec take k = function [] -> [] | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest

let rec merge_desc k a b =
  if k = 0 then []
  else
    match (a, b) with
    | [], rest | rest, [] -> take k rest
    | x :: xs, y :: ys ->
        if Topk.beats y x then y :: merge_desc (k - 1) a ys else x :: merge_desc (k - 1) xs b

let ranking_encoded ~surrogate ~pool ~encoded =
  match encoded with
  | Some e ->
      if not (Surrogate.Pool.configs e == pool) then
        invalid_arg "Strategy.select_many: encoded pool does not wrap the candidate pool";
      e
  | None -> Surrogate.Pool.encode (Surrogate.space surrogate) pool

(* Below this pool size the scoring scan is cheaper than the fixed
   cost of fanning tasks out to a domain pool (~tens of µs), so
   [?workers] is ignored and the scan runs sequentially — BENCH_select
   showed every parallel configuration 4-5x SLOWER than sequential at
   pool 1620. The crossover sits well under 10^5 rows on commodity
   cores; 32768 leaves margin on the sequential side. Tests override
   it with [?parallel_threshold:0] to force the parallel path on
   small pools. *)
let default_parallel_threshold = 32768

(* Fixed scan granule: chunk boundaries depend only on the pool size,
   never on the worker count or schedule, so per-chunk top-k partials
   merge to the same result for every parallel configuration — and
   the sequential path reuses the same granule, making parallel
   bit-identity a matter of merge associativity alone. 4096 rows *
   8 bytes keeps the score buffer inside L1/L2. *)
let scan_chunk = 4096

(* Score rows [lo, hi) through the compiled table into [buf] and fold
   the unexcluded ones into [top]. The admission pre-check repeats
   {!Topk_stream.offer}'s comparison inline against plain record
   fields so the overwhelming majority of rows — everything that
   cannot enter the top-k — never crosses a (float-boxing) call
   boundary; the scan allocates nothing per row. *)
let scan_range compiled keep buf top ~lo ~hi =
  Surrogate.Compiled.scores_into compiled ~lo ~hi buf;
  for j = 0 to hi - lo - 1 do
    let i = lo + j in
    if keep i then begin
      let s = Array.unsafe_get buf j in
      if
        (not top.Topk_stream.full)
        || s > top.Topk_stream.worst_score
        || (s = top.Topk_stream.worst_score && -i > top.Topk_stream.worst_tie)
      then Topk_stream.offer top s i
    end
  done

(* Exact branch-and-bound scan of a virtual pool's digit tree. A
   node at depth p fixes digits 0..p; its subtree's scores are all
   bounded by the node's left-to-right prefix sum plus the sum of
   per-parameter table maxima over the remaining digits, so any
   subtree whose bound is STRICTLY below the worst kept score can be
   skipped without visiting a row. Strict comparison keeps the scan
   exact under the (score desc, index asc) total order: a row tying
   the final k-th score is never pruned, and every skipped row scores
   strictly below the k-th — pruning changes which rows are offered,
   never which k survive, so the result is bit-identical to the full
   scan (admitted scores are the same left-to-right prefix sums
   {!Surrogate.Compiled.log_ratio} computes). Both comparisons fail
   on NaN bounds/thresholds, so poisoned table entries disable
   pruning rather than mis-pruning.

   [shared] is the parallel scan's cross-chunk threshold: each chunk
   publishes its local worst (a lower bound on the final k-th score,
   since a chunk's k-th is at most the global k-th) and prunes
   against the best bound any chunk has published. The shared value
   evolves racily, but every pruned row still scores strictly below
   the final k-th, so the merged result is exact — identical to the
   sequential scan — for every domain count, schedule, and timing. *)
let scan_radix compiled keep top ?shared ~radices ~lo ~hi () =
  let table = Surrogate.Compiled.table compiled in
  let off = Surrogate.Compiled.offsets compiled in
  let np = Array.length radices in
  if np = 0 then begin
    if lo <= 0 && hi > 0 && keep 0 then Topk_stream.offer top 0. 0
  end
  else begin
    let strides = Array.make np 1 in
    for p = np - 2 downto 0 do
      strides.(p) <- strides.(p + 1) * radices.(p + 1)
    done;
    (* suffix_max.(p) = max achievable sum of table entries over
       parameters p..np-1. *)
    let suffix_max = Array.make (np + 1) 0. in
    for p = np - 1 downto 0 do
      let m = ref neg_infinity in
      for d = 0 to radices.(p) - 1 do
        let v = Bigarray.Array1.unsafe_get table (off.(p) + d) in
        if v > !m then m := v
      done;
      suffix_max.(p) <- !m +. suffix_max.(p + 1)
    done;
    let threshold () =
      let local = if top.Topk_stream.full then top.Topk_stream.worst_score else neg_infinity in
      match shared with None -> local | Some a -> Stdlib.max local (Atomic.get a)
    in
    let publish () =
      match shared with
      | None -> ()
      | Some a ->
          if top.Topk_stream.full then begin
            let w = top.Topk_stream.worst_score in
            let rec bump () =
              let cur = Atomic.get a in
              if w > cur && not (Atomic.compare_and_set a cur w) then bump ()
            in
            bump ()
          end
    in
    let rec go p base acc =
      let toff = Array.unsafe_get off p in
      if p = np - 1 then begin
        let d_lo = Stdlib.max 0 (lo - base) in
        let d_hi = Stdlib.min radices.(p) (hi - base) in
        (* A stale (lower) threshold only admits extra offers, which
           re-check; exactness is unaffected. *)
        let thr = threshold () in
        for d = d_lo to d_hi - 1 do
          let i = base + d in
          if keep i then begin
            let s = acc +. Bigarray.Array1.unsafe_get table (toff + d) in
            if (not top.Topk_stream.full) || s >= thr then begin
              Topk_stream.offer top s i;
              publish ()
            end
          end
        done
      end
      else begin
        let stride = Array.unsafe_get strides p in
        let bound_tail = Array.unsafe_get suffix_max (p + 1) in
        for d = 0 to radices.(p) - 1 do
          let b = base + (d * stride) in
          if b < hi && b + stride > lo then begin
            let v = acc +. Bigarray.Array1.unsafe_get table (toff + d) in
            if not (v +. bound_tail < threshold ()) then go (p + 1) b v
          end
        done
      end
    in
    go 0 0 0.
  end

let scan_indices compiled keep top ?shared ~n ~lo ~hi buf =
  match Surrogate.Pool.radices (Surrogate.Compiled.pool compiled) with
  | Some radices -> scan_radix compiled keep top ?shared ~radices ~lo ~hi ()
  | None ->
      let buf =
        match buf with Some b -> b | None -> Array.make (Stdlib.min n scan_chunk) 0.
      in
      let at = ref lo in
      while !at < hi do
        let chunk_hi = Stdlib.min hi (!at + scan_chunk) in
        scan_range compiled keep buf top ~lo:!at ~hi:chunk_hi;
        at := chunk_hi
      done

let select_indices_seq compiled keep ~k ~n =
  let top = Topk_stream.create k in
  scan_indices compiled keep top ~n ~lo:0 ~hi:n None;
  Topk_stream.to_desc top

let select_indices_par compiled keep ~k ~n ~workers =
  let n_chunks = (n + scan_chunk - 1) / scan_chunk in
  let shared =
    match Surrogate.Pool.radices (Surrogate.Compiled.pool compiled) with
    | Some _ -> Some (Atomic.make neg_infinity)
    | None -> None
  in
  let best =
    Parallel.Pool.parallel_for_reduce workers ~lo:0 ~hi:n_chunks ~init:[]
      ~combine:(fun a b -> merge_desc k a b)
      (fun ci ->
        let lo = ci * scan_chunk in
        let hi = Stdlib.min n (lo + scan_chunk) in
        let top = Topk_stream.create k in
        scan_indices compiled keep top ?shared ~n ~lo ~hi None;
        List.map
          (fun (score, index) -> { Topk.value = index; score; index })
          (Topk_stream.to_desc top))
  in
  List.map (fun e -> (e.Topk.score, e.Topk.index)) best

(* Exhaustive ranking over an encoded pool: stream every row's
   compiled score through a bounded heap, never materializing a
   per-candidate score array. The evaluated-set check is inverted
   into a per-refit exclusion mask (hashing every candidate per refit
   would dominate the scan; the evaluated side is small). The mask is
   written before the scan and only read during it, so the parallel
   loop touches no shared mutable state. *)
let select_ranking_exhaustive ~telemetry ~workers ~parallel_threshold ~compiled ~k
    ~surrogate ~encoded ~evaluated =
  let compiled =
    match compiled with
    | Some c ->
        if not (Surrogate.Compiled.pool c == encoded) then
          invalid_arg "Strategy.select_many: compiled scorer does not wrap the encoded pool";
        c
    | None -> Surrogate.compile ~telemetry surrogate encoded
  in
  let t0 = Telemetry.Trace.now telemetry in
  let n = Surrogate.Pool.length encoded in
  let keep =
    (* Nothing evaluated yet (the first guided refit after seeding can
       hit this via resume, and benches do): skip allocating and
       zeroing an n-byte mask entirely. *)
    if Param.Config.Table.length evaluated = 0 then fun _ -> true
    else begin
      let excluded = Bytes.make n '\000' in
      Param.Config.Table.iter
        (fun c () ->
          List.iter (fun i -> Bytes.set excluded i '\001') (Surrogate.Pool.indices_of encoded c))
        evaluated;
      fun i -> Bytes.unsafe_get excluded i = '\000'
    end
  in
  let workers = match workers with Some w when n >= parallel_threshold -> Some w | _ -> None in
  let ranked =
    match workers with
    | None -> select_indices_seq compiled keep ~k ~n
    | Some w -> select_indices_par compiled keep ~k ~n ~workers:w
  in
  let selected = List.map (fun (_, i) -> Surrogate.Pool.config encoded i) ranked in
  if Telemetry.Trace.enabled telemetry then
    Telemetry.Trace.emit telemetry
      (Telemetry.Event.Rank
         {
           pool_size = n;
           k;
           selected = List.length selected;
           workers = (match workers with None -> 1 | Some w -> Parallel.Pool.size w);
           schedule = (match workers with None -> "seq" | Some _ -> "static");
           dur_ms = (Telemetry.Trace.now telemetry -. t0) *. 1000.;
         });
  selected

let select_many_encoded ?(telemetry = Telemetry.Trace.disabled) ?workers
    ?(parallel_threshold = default_parallel_threshold) ?compiled ~k ~surrogate ~encoded
    ~evaluated () =
  if k < 1 then invalid_arg "Strategy.select_many: k must be at least 1";
  if parallel_threshold < 0 then
    invalid_arg "Strategy.select_many: negative parallel_threshold";
  select_ranking_exhaustive ~telemetry ~workers ~parallel_threshold ~compiled ~k
    ~surrogate ~encoded ~evaluated

let select_many_proposal ~k ~rng ~surrogate ~evaluated ~n_candidates =
  let chosen = Param.Config.Table.create k in
  let draw () =
    let rec fresh attempts =
      let c = Surrogate.sample_good surrogate rng in
      if attempts >= max_duplicate_redraws
         || not (Param.Config.Table.mem evaluated c || Param.Config.Table.mem chosen c)
      then c
      else fresh (attempts + 1)
    in
    fresh 0
  in
  let rec pick acc remaining =
    if remaining = 0 then List.rev acc
    else begin
      let top = Topk.create 1 in
      for _ = 1 to n_candidates do
        let c = draw () in
        Topk.offer top c (Surrogate.score surrogate c)
      done;
      match Topk.to_list_desc top with
      | [] -> List.rev acc
      | best :: _ ->
          Param.Config.Table.replace chosen best ();
          pick (best :: acc) (remaining - 1)
    end
  in
  pick [] k

let select_many ?telemetry ?workers ?parallel_threshold ?encoded t ~k ~rng
    ~surrogate ~pool ~evaluated =
  if k < 1 then invalid_arg "Strategy.select_many: k must be at least 1";
  match t with
  | Ranking ->
      let encoded = ranking_encoded ~surrogate ~pool ~encoded in
      select_many_encoded ?telemetry ?workers ?parallel_threshold ~k ~surrogate
        ~encoded ~evaluated ()
  | Proposal { n_candidates } ->
      validate t;
      select_many_proposal ~k ~rng ~surrogate ~evaluated ~n_candidates

let select ?telemetry ?workers ?parallel_threshold ?encoded t ~rng
    ~surrogate ~pool ~evaluated =
  match
    select_many ?telemetry ?workers ?parallel_threshold ?encoded t ~k:1
      ~rng ~surrogate ~pool ~evaluated
  with
  | [] -> None
  | best :: _ -> Some best
