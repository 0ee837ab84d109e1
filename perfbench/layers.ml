(* The per-layer metrics of a traced run. Every traced run reports the
   whole list, so a layer a workload does not reach reads 0 — which is
   itself the measurement ("should barely register on").

   The spans the workloads open are named after the self-time metrics
   in [self_times]; those, plus [unattributed_s], add up to the traced
   wall [trace.wall_s] by construction. *)

let self_times =
  [
    "unary.k1_s";
    "search.k2_s";
    "search.k3_s";
    "structure.build_s";
    "cache.probe_s";
    "scan.replay_s";
    "persist.save_s";
    "persist.load_s";
    "fleet.run_s";
    "spanner.eval_s";
    "check_s";
  ]

let all =
  List.map (fun n -> (n, "s")) self_times
  @ [
      ("unary.k1_calls", "count");
      ("search.nodes", "count");
      ("search.nodes_k1_share", "1");
      ("search.prune_forced", "count");
      ("search.prune_dominated", "count");
      ("structure.universe_size", "count");
      ("cache.hits", "count");
      ("cache.misses", "count");
      ("cache.stores", "count");
      ("cache.hit_ratio", "1");
      ("cache.entries", "count");
      ("scan.chunks", "count");
      ("scan.residual_s", "s");
      ("persist.bytes", "bytes");
      ("fleet.work_s", "s");
      ("fleet.crit_path_s", "s");
      ("fleet.drain_tail_s", "s");
      ("fleet.idle_s", "s");
      ("fleet.claims", "count");
      ("fleet.reclaims", "count");
      ("fleet.speculated", "count");
      ("fleet.deduped", "count");
      ("fleet.useful_ratio", "1");
      ("merge.s", "s");
      ("fleet.speedup_measured", "x");
      ("fleet.speedup_base_s", "s");
      ("fleet.nproc", "count");
      ("spanner.extract_s", "s");
      ("spanner.select_s", "s");
      ("spanner.vset_compile_s", "s");
      ("spanner.vset_eval_s", "s");
      ("spanner.rows", "count");
      ("trace.wall_s", "s");
      ("trace.base_wall_s", "s");
      ("obs.trace_overhead_ratio", "1");
      ("unattributed_s", "s");
    ]

(* Per-layer block of a traced run, as (name, unit, value). Self times
   are the spans' sums divided by the number of traced repetitions
   [reps]; [wall] and [base_wall] are the traced and untraced repetition
   walls; [extra] sets the workload's counters and probe timings. *)
let report ~spans ~reps ~wall ~base_wall extra =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n all) then invalid_arg ("Layers.report: unknown metric " ^ n))
    extra;
  let per_rep x = x /. float_of_int (max 1 reps) in
  let selfs = List.map (fun n -> (n, per_rep (Spans.self spans n))) self_times in
  List.iter
    (fun n ->
      if not (List.mem n self_times) then
        invalid_arg ("Layers.report: span outside the self-time list: " ^ n))
    (Spans.names spans);
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0. selfs in
  let derived =
    [
      ("trace.wall_s", wall);
      ("trace.base_wall_s", base_wall);
      ("obs.trace_overhead_ratio", wall /. base_wall);
      ("unattributed_s", wall -. attributed);
    ]
  in
  List.map
    (fun (n, u) ->
      let v =
        match List.assoc_opt n extra with
        | Some v -> v
        | None -> (
            match List.assoc_opt n derived with
            | Some v -> v
            | None -> Option.value (List.assoc_opt n selfs) ~default:0.)
      in
      (n, u, v))
    all

(* Counters the library already exports, read from an Obs.Metrics
   snapshot taken after a traced repetition. *)
let snapshot_counters () =
  let snap = Obs.Metrics.snapshot () in
  let total n = match List.assoc_opt n snap with Some v -> Obs.Metrics.total v | None -> 0 in
  let nodes_k1 =
    match List.assoc_opt "game.nodes_by_k" snap with
    | Some (Obs.Metrics.Vec a) when Array.length a > 1 -> a.(1)
    | _ -> 0
  in
  let nodes = total "game.nodes_by_k" in
  [
    ("search.nodes", float_of_int nodes);
    ("search.prune_forced", float_of_int (total "game.prune.forced"));
    ("search.prune_dominated", float_of_int (total "game.prune.dominated"));
    ( "search.nodes_k1_share",
      if nodes = 0 then 0. else float_of_int nodes_k1 /. float_of_int nodes );
  ]

(* Table counters summed over the repetition's tables. *)
let cache_counters caches =
  let sum f = List.fold_left (fun acc c -> acc + f (Efgame.Cache.stats c)) 0 caches in
  let hits = sum (fun s -> s.Efgame.Cache.hits) and misses = sum (fun s -> s.Efgame.Cache.misses) in
  [
    ("cache.hits", float_of_int hits);
    ("cache.misses", float_of_int misses);
    ("cache.stores", float_of_int (sum (fun s -> s.Efgame.Cache.stores)));
    ("cache.entries", float_of_int (sum (fun s -> s.Efgame.Cache.entries)));
    ( "cache.hit_ratio",
      if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses) );
  ]

(* Run [f] with the library's counters switched on and zeroed. *)
let with_counters f =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.disable f
