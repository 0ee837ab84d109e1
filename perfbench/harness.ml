(* Shared machinery: the command line, repetition loops, set-up timing,
   percentiles, and the report (human lines, a saved JSON report with the
   environment block, and the one-line JSON result the caller parses). *)

let now = Unix.gettimeofday

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  work : string;  (** scratch directory, inside the checkout *)
  cli : string;  (** path of the built efgame_cli executable *)
  label : string;  (** subdirectory of the saved reports; "" for none *)
}

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------ stats *)

(* Linear interpolation between order statistics (the "type 7"
   estimator), [p] in percent. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = float_of_int (n - 1) *. p /. 100. in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* The highest percentile of the ladder with at least ten of [n]
   samples beyond it. *)
let tail_percentile n =
  let ladder = [ 99.9; 99.5; 99.; 98.; 95.; 90.; 80.; 75.; 50. ] in
  match
    List.find_opt (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.) ladder
  with
  | Some p -> p
  | None -> invalid_arg "tail_percentile: fewer than 20 samples"

(* --------------------------------------------------------- set-up *)

(* One set-up sample: call [f] until 50 ms have passed, so that
   sub-millisecond set-ups are timed in batches rather than at the
   clock's resolution. Returns the last call's value and the mean time
   per call. The workload loop takes one sample per repetition, so
   [setup_s] is a median over the whole run, like [wall_s]. *)
let time_setup f =
  let t0 = now () in
  let rec go n =
    let v = f () in
    let d = now () -. t0 in
    if d >= 0.05 then (v, d /. float_of_int n) else go (n + 1)
  in
  go 1

(* ------------------------------------------------------ repetition *)

(* Every repetition starts from a compacted heap, as a fresh process
   would, so that one repetition's garbage is not collected on the next
   one's clock. *)
let settle () = Gc.compact ()

(* Run [rep] until [seconds] have passed, at least [min_reps] times, and
   stop before a repetition predicted (from the previous one) to end
   past the budget. [rep] returns its own wall time plus a payload. *)
let repeat ~seconds ~min_reps rep =
  let t_start = now () in
  let rec go acc n last =
    let elapsed = now () -. t_start in
    if n >= min_reps && elapsed +. last > seconds then List.rev acc
    else
      let ((wall, _) as r) = settle (); rep () in
      go (r :: acc) (n + 1) wall
  in
  go [] 0 0.

(* Traced runs alternate untraced and traced repetitions, so both see
   the same machine state; at least [min_each] of each. *)
let repeat_alternating ~seconds ~min_each ~untraced ~traced =
  let t_start = now () in
  let rec go us ts n last =
    let elapsed = now () -. t_start in
    let both = min (List.length us) (List.length ts) in
    if both >= min_each && elapsed +. last > seconds then (List.rev us, List.rev ts)
    else if n mod 2 = 0 then
      let w = settle (); untraced () in
      go (w :: us) ts (n + 1) w
    else
      let w = settle (); traced () in
      go us (w :: ts) (n + 1) w
  in
  go [] [] 0 0.

(* ---------------------------------------------------------- report *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* The end-to-end block every untraced run reports. [items] holds one
   list of per-item latencies (ms) per repetition, always in the same
   item order. Each item's latency is its fastest over the
   repetitions: the host's speed drifts by tens of percent over
   minutes, and an item's least-disturbed sample is what repeats from
   run to run (its median follows the drift). The percentiles then
   describe the items rather than the moments the machine was slow, and
   the tail percentile depends only on the workload's item count. *)
let end_to_end ~setups ~walls ~items ~item_name ~attempted ~failed =
  let reps = List.map Array.of_list items in
  let n = List.fold_left (fun acc a -> min acc (Array.length a)) max_int reps in
  let per_item =
    List.init n (fun i -> List.fold_left (fun acc a -> Float.min acc a.(i)) infinity reps)
  in
  let p = tail_percentile n in
  let failed_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  let metrics =
    [
      m "setup_s" "s" (median setups);
      m "wall_s" "s" (median walls);
      m "item_p50_ms" "ms" (median per_item);
      m "item_tail_ms" "ms" (percentile per_item p);
      m "peak_heap_mb" "MB" (peak_heap_mb ());
    ]
  in
  let notes =
    [
      Printf.sprintf
        "item latencies: per-%s fastest of %d repetitions; item_tail_ms is p%g of %d %ss \
         (%.0f beyond it)"
        item_name (List.length items) p n item_name
        (float_of_int n *. (1. -. (p /. 100.)));
      Printf.sprintf "wall_s is the median of %d repetitions: %s" (List.length walls)
        (String.concat " " (List.map (Printf.sprintf "%.4f") walls));
      Printf.sprintf "setup_s is the median of %d per-repetition samples: %s"
        (List.length setups)
        (String.concat " " (List.map (Printf.sprintf "%.6f") setups));
      Printf.sprintf "failed_ratio = %d / %d = %g [1]" failed attempted failed_ratio;
    ]
  in
  (metrics, notes)

(* -------------------------------------------------------- workload *)

(* One repetition's outcome: its wall time, its items' latencies in ms
   (in the same item order every repetition; traced repetitions may
   leave them empty), and how many items it tried and got wrong. *)
type rep = { wall : float; items : float list; tried : int; bad : int }

(* What a workload gives [run]. [setup] builds one repetition's state,
   timed apart from its wall; [untraced] and [traced] run one repetition
   on that state; [layers] gives the workload's own per-layer values
   after a traced run (see [Layers.report]); [notes] its report lines,
   known-answer mismatches included; [before] the (attempted, failed)
   counts of checks made before the repetitions. *)
type 'a workload = {
  item_name : string;
  min_reps : int;
  setup : unit -> 'a;
  untraced : 'a -> rep;
  traced : Spans.t -> 'a -> rep;
  layers : Spans.t -> reps:int -> (string * float) list;
  notes : unit -> string list;
  before : int * int;
}

(* The loop every workload shares. Untraced: set up and run repetitions
   until the time is spent, one set-up sample per repetition, and report
   the end-to-end block. Traced: alternate untraced and traced
   repetitions and report the per-layer block, writing the spans to the
   scratch directory. *)
let run cfg w =
  let attempted = ref (fst w.before) and failed = ref (snd w.before) in
  let tally r =
    attempted := !attempted + r.tried;
    failed := !failed + r.bad;
    r.wall
  in
  let result metrics lines =
    { attempted = !attempted; failed = !failed; metrics; notes = w.notes () @ lines }
  in
  if not cfg.trace then begin
    let setups = ref [] in
    let reps =
      repeat ~seconds:cfg.seconds ~min_reps:w.min_reps (fun () ->
          let st, s = time_setup w.setup in
          setups := s :: !setups;
          let r = w.untraced st in
          (tally r, r.items))
    in
    let metrics, lines =
      end_to_end ~setups:(List.rev !setups) ~walls:(List.map fst reps)
        ~items:(List.map snd reps) ~item_name:w.item_name ~attempted:!attempted
        ~failed:!failed
    in
    result metrics lines
  end
  else begin
    let spans = Spans.create () in
    let base, traced =
      repeat_alternating ~seconds:cfg.seconds ~min_each:2
        ~untraced:(fun () -> tally (w.untraced (w.setup ())))
        ~traced:(fun () -> tally (w.traced spans (w.setup ())))
    in
    let reps = List.length traced in
    let metrics =
      Layers.report ~spans ~reps ~wall:(mean traced) ~base_wall:(median base)
        (w.layers spans ~reps)
      |> List.map (fun (n, u, v) -> m n u v)
    in
    Spans.write spans (Filename.concat cfg.work ("spans-" ^ cfg.workload ^ ".json"));
    result metrics
      [ Printf.sprintf "%d untraced and %d traced repetitions" (List.length base) reps ]
  end

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  let b = Buffer.create 512 in
  Buffer.add_char b '{';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: {\"value\": %s, \"unit\": %S}" x.name (fmt_float x.value)
        x.unit_)
    ms;
  Buffer.add_char b '}';
  Buffer.contents b

let nproc () = Domain.recommended_domain_count ()

(* Reports go to [<work>/reports/<label>/], named after the workload,
   the trace mode, the seed and the UTC time the run ended, so that no
   run overwrites another's report. *)
let save_report cfg r =
  let mkdir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> () in
  let dir = Filename.concat cfg.work "reports" in
  mkdir dir;
  let dir = if cfg.label = "" then dir else Filename.concat dir cfg.label in
  mkdir dir;
  let t = now () in
  let tm = Unix.gmtime t in
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-trace%d-seed%d-%04d%02d%02dT%02d%02d%02d.%03dZ.json" cfg.workload
         (if cfg.trace then 1 else 0)
         cfg.seed (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
         tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
         (int_of_float (Float.rem t 1. *. 1000.)))
  in
  let module J = Obs.Jsonw in
  J.to_file path (fun w ->
      J.obj w (fun w ->
          J.field_string w "schema" "perfbench-report/1";
          J.field_string w "workload" cfg.workload;
          J.field_int w "seed" cfg.seed;
          J.field_string w "label" cfg.label;
          J.field_float w "seconds" cfg.seconds;
          J.field_bool w "trace" cfg.trace;
          J.field w "env" (fun w -> Obs.Env.emit (Obs.Env.capture ()) w);
          J.field_int w "nproc" (nproc ());
          J.field_int w "attempted" r.attempted;
          J.field_int w "failed" r.failed;
          J.field w "notes" (fun w -> J.arr w (fun w -> List.iter (J.string w) r.notes));
          J.field w "metrics" (fun w ->
              J.obj w (fun w ->
                  List.iter
                    (fun x ->
                      J.field w x.name (fun w ->
                          J.obj w (fun w ->
                              J.field_float ~prec:9 w "value" x.value;
                              J.field_string w "unit" x.unit_)))
                    r.metrics))));
  path

let print_result cfg r =
  let env = Obs.Env.capture () in
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%b\n" cfg.workload cfg.seed
    cfg.seconds cfg.trace;
  Printf.printf "# env: cpu=%S nproc=%d ocaml=%s word=%d os=%s host=%s\n" env.Obs.Env.cpu
    (nproc ()) env.Obs.Env.ocaml_version env.Obs.Env.word_size env.Obs.Env.os
    env.Obs.Env.hostname;
  List.iter (fun x -> Printf.printf "# %-26s %14s %s\n" x.name (fmt_float x.value) x.unit_) r.metrics;
  List.iter (Printf.printf "# %s\n") r.notes;
  Printf.printf "# report: %s\n" (save_report cfg r);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (r.failed = 0) r.attempted r.failed (json_metrics r.metrics)
