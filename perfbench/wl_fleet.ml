(* frontier_fleet: the ≡₃ unary frontier to N computed twice per
   repetition, and the two results checked against the same pins —
   first cold in this process (Wl_frontier:
   [Witness.scan ~engine:Cached] on a fresh table, [Persist.save]), then
   by a real multi-process fleet, as shipped (the CLI's default cost
   model, lease TTL and speculation): [efgame_cli shard init --shards 40]
   (set-up) and [efgame_cli shard run --workers 2], followed in-process
   by [Persist.load] of the merged table, a warm replay of the scan
   against it, and a pair-level verdict read ([Witness.table_verdict])
   of the whole triangle. Items are the fleet's shards, timed by the
   workers themselves (completion records' [wall_ns]); the single-process
   half gives the measured speed-up its base within the same repetition.

   Known answers: the cold scan ends Exhausted N; the fleet converges
   (exit 0) and stamps bound (3, N); the replay is Exhausted with no
   table misses; both tables and their pair-level verdicts digest to
   the frontier pins. *)

open Efgame

let n = Wl_frontier.n
let k = Wl_frontier.k
let shards = 40
let workers = 2

type state = { dir : string; out : string; json : string }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Run efgame_cli with [args], output to [log]; true on exit 0. *)
let cli (cfg : Harness.cfg) log args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process cfg.cli (Array.of_list (cfg.cli :: args)) Unix.stdin fd fd)
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false

let cleanup st = List.iter rm_rf [ st.dir; st.out; st.out ^ ".bak"; st.json ]

let setup (cfg : Harness.cfg) () =
  let dir = Filename.concat cfg.work "fleet" in
  let st = { dir; out = dir ^ ".tbl"; json = dir ^ "-run.json" } in
  cleanup st;
  if
    not
      (cli cfg (dir ^ "-init.log")
         [ "shard"; "init"; dir; "-k"; string_of_int k; "--max"; string_of_int n;
           "--shards"; string_of_int shards; "-q" ])
  then failwith "efgame_cli shard init failed";
  st

let run_fleet (cfg : Harness.cfg) st =
  cli cfg (st.dir ^ "-run.log")
    [ "shard"; "run"; st.dir; st.out; "--workers"; string_of_int workers; "--json"; st.json ]

let run_json st = Result.to_option (Obs.Jsonr.of_file st.json)

let converged st =
  match run_json st with
  | Some j -> Obs.Jsonr.member "converged" j |> Option.map Obs.Jsonr.to_bool = Some (Some true)
  | None -> false

let load cache st = match Persist.load cache st.out with Ok r -> Some r | Error _ -> None

let replay cache = Witness.scan ~engine:(Witness.Cached cache) ~k ~max_n:n ()

let check notes cache ~ran ~report ~replayed ~probed =
  let replay_ok =
    match replayed with
    | Witness.Exhausted m, s -> m = n && s.Witness.cache_misses = 0
    | _ -> false
  in
  let bound_ok =
    match report with Some (r : Persist.report) -> r.bound = Some (k, n) | None -> false
  in
  if not (ran && bound_ok) then notes := "MISMATCH fleet did not converge to bound (3, N)" :: !notes;
  if not replay_ok then notes := "MISMATCH warm replay was not Exhausted with 0 misses" :: !notes;
  ran && bound_ok && replay_ok
  && Pinned.check notes "merged fleet pair verdicts" ~expected:(Pinned.frontier_64_pairs ())
       ~actual:probed
  && Pinned.check notes "merged fleet table digest" ~expected:(Pinned.frontier_64 ())
       ~actual:(Pinned.table_digest cache)

let rep_untraced notes cfg st =
  let t0 = Harness.now () in
  let ran = run_fleet cfg st && converged st in
  let t_run = Harness.now () -. t0 in
  let cache = Cache.create () in
  let report = load cache st in
  let replayed = replay cache in
  let probed = Wl_frontier.probe cache in
  let ok = check notes cache ~ran ~report ~replayed ~probed in
  (Harness.now () -. t0, t_run, ok)

let rep_traced notes spans cfg st =
  let t0 = Harness.now () in
  let ran = Spans.with_span spans "fleet.run_s" (fun () -> run_fleet cfg st && converged st) in
  let cache = Cache.create () in
  let report = Spans.with_span spans "persist.load_s" (fun () -> load cache st) in
  let replayed = Spans.with_span spans "scan.replay_s" (fun () -> replay cache) in
  let probed = Spans.with_span spans "cache.probe_s" (fun () -> Wl_frontier.probe cache) in
  let ok =
    Spans.with_span spans "check_s" (fun () ->
        check notes cache ~ran ~report ~replayed ~probed)
  in
  (Harness.now () -. t0, cache, ok)

(* [heartbeat_sum st f] sums [f] over the workers' last heartbeats. *)
let heartbeat_sum st =
  let views = List.map (fun o -> o.Dist.Heartbeat.ob_view) (fst (Dist.Heartbeat.list ~dir:st.dir)) in
  fun f -> float_of_int (List.fold_left (fun acc v -> acc + f v) 0 views)

(* Completion records: (owner, wall seconds) per shard. *)
let shard_walls st =
  List.init shards (fun i ->
      match Dist.Record.read ~dir:st.dir i with
      | Ok { Dist.Record.owner; wall_ns = Some ns; _ } -> Some (owner, Int64.to_float ns /. 1e9)
      | _ -> None)
  |> List.filter_map Fun.id

(* The dist layer's counters for one traced repetition: records,
   heartbeats and the run report, plus an in-process re-merge of the
   converged directory (outside the timed repetition). *)
let fleet_metrics cfg st ~run_s =
  let walls = shard_walls st in
  let work = List.fold_left (fun acc (_, w) -> acc +. w) 0. walls in
  let owners = List.sort_uniq compare (List.map fst walls) in
  let crit =
    List.fold_left
      (fun acc o ->
        Float.max acc
          (List.fold_left (fun a (o', w) -> if o' = o then a +. w else a) 0. walls))
      0. owners
  in
  let sum = heartbeat_sum st in
  let pairs = sum (fun v -> v.Dist.Heartbeat.v_pairs) in
  let speculated = sum (fun v -> v.Dist.Heartbeat.v_speculated) in
  let tail =
    Option.bind (run_json st) (fun j -> Obs.Jsonr.mem_float "drain_tail_s" j)
    |> Option.value ~default:0.
  in
  let merge_out = Filename.concat cfg.Harness.work "fleet-remerge.tbl" in
  let _, merge_s =
    Harness.timed (fun () -> Dist.Merge.merge ~fsync:false ~dir:st.dir ~out:merge_out ())
  in
  List.iter rm_rf [ merge_out; merge_out ^ ".bak" ];
  [
    ("fleet.work_s", work);
    ("fleet.crit_path_s", crit);
    ("fleet.drain_tail_s", tail);
    ("fleet.idle_s", (float_of_int workers *. run_s) -. work);
    ("fleet.claims", sum (fun v -> v.Dist.Heartbeat.v_claimed));
    ("fleet.reclaims", sum (fun v -> v.Dist.Heartbeat.v_reclaimed));
    ("fleet.speculated", speculated);
    ("fleet.deduped", speculated -. sum (fun v -> v.Dist.Heartbeat.v_spec_wins));
    ( "fleet.useful_ratio",
      if pairs = 0. then 0. else float_of_int (n * (n + 1) / 2) /. pairs );
    ("merge.s", merge_s);
  ]

let rep_both_traced notes spans cfg (cold, st) =
  let t0 = Harness.now () in
  let _, cold_ok = Wl_frontier.rep_traced notes spans cold in
  let before = Spans.self spans "fleet.run_s" in
  let _, cache, ok = rep_traced notes spans cfg st in
  let run_s = Spans.self spans "fleet.run_s" -. before in
  (Harness.now () -. t0, cache, run_s, cold_ok && ok)

let workload (cfg : Harness.cfg) : (Wl_frontier.state * state) Harness.workload =
  let notes = ref [] in
  let cold_walls = ref [] and scan_walls = ref [] and run_walls = ref [] in
  let chunks = ref 0 and reclaims = ref 0. and speculated = ref 0. in
  let extra = ref [] in
  (* one repetition: the cold half, then the fleet half; items are the
     fleet's shards *)
  let untraced (cold, st) =
    let t0 = Harness.now () in
    let cold_wall, scan_wall, stats, cold_ok = Wl_frontier.rep_untraced notes cold in
    let _, t_run, ok = rep_untraced notes cfg st in
    let wall = Harness.now () -. t0 in
    cold_walls := cold_wall :: !cold_walls;
    scan_walls := scan_wall :: !scan_walls;
    run_walls := t_run :: !run_walls;
    chunks := stats.Witness.chunks;
    let sum = heartbeat_sum st in
    reclaims := !reclaims +. sum (fun v -> v.Dist.Heartbeat.v_reclaimed);
    speculated := !speculated +. sum (fun v -> v.Dist.Heartbeat.v_speculated);
    let items = List.map (fun (_, w) -> w *. 1000.) (shard_walls st) in
    (* the next set-up then times the same work as every other one *)
    cleanup st;
    { Harness.wall; items; tried = 1; bad = (if cold_ok && ok then 0 else 1) }
  in
  let traced spans (cold, st) =
    let wall, cache, run_s, ok =
      Layers.with_counters (fun () -> rep_both_traced notes spans cfg (cold, st))
    in
    extra :=
      Layers.snapshot_counters ()
      @ Layers.cache_counters [ cold.Wl_frontier.cache; cache ]
      @ fleet_metrics cfg st ~run_s
      @ [ ("persist.bytes", float_of_int (Wl_frontier.file_size cold.Wl_frontier.table)) ];
    cleanup st;
    { Harness.wall; items = []; tried = 1; bad = (if ok then 0 else 1) }
  in
  let speedup () =
    let base_s = Harness.median !cold_walls and fleet_s = Harness.median !run_walls in
    (base_s /. fleet_s, base_s, fleet_s)
  in
  let layers spans ~reps =
    let per_rep name = Spans.self spans name /. float_of_int reps in
    let solve_s =
      List.fold_left
        (fun acc s -> acc +. per_rep s)
        0.
        [ "unary.k1_s"; "search.k2_s"; "search.k3_s"; "structure.build_s" ]
    in
    let ratio, base_s, _ = speedup () in
    !extra
    @ [
        ("unary.k1_calls", float_of_int (Spans.count spans "unary.k1_s") /. float_of_int reps);
        ("scan.chunks", float_of_int !chunks);
        ("scan.residual_s", Harness.median !scan_walls -. solve_s);
        ("fleet.speedup_measured", ratio);
        ("fleet.speedup_base_s", base_s);
        ("fleet.nproc", float_of_int (Harness.nproc ()));
      ]
  in
  let notes () =
    let n_reps = List.length !run_walls in
    let ratio, base_s, fleet_s = speedup () in
    (if n_reps = 0 then []
     else
       [
         Printf.sprintf
           "fleet over %d untraced repetitions: %g reclaims, %g speculated shard runs \
            (default lease TTL and speculation)"
           n_reps !reclaims !speculated;
         Printf.sprintf
           "fleet.speedup_measured (measured, not projected) = %.3f: median single-process \
            cold scan+save+check %.3f s / median %d-worker shard run %.3f s, same \
            repetitions, nproc=%d"
           ratio base_s workers fleet_s (Harness.nproc ());
       ])
    @ (if cfg.trace then
         [ "scan.residual_s = median untraced Witness.scan wall - traced per-pair solve spans" ]
       else [])
    @ List.rev !notes
  in
  {
    Harness.item_name = "shard";
    min_reps = 5;
    setup = (fun () -> (Wl_frontier.setup cfg (), setup cfg ()));
    untraced;
    traced;
    layers;
    notes;
    before = (0, 0);
  }

let run cfg = Harness.run cfg (workload cfg)
