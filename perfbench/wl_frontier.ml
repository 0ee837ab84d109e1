(* The cold half of the frontier_fleet workload: the exhaustive ≡₃ unary
   scan to N through [Witness.scan ~engine:Cached] on a fresh table,
   then [Persist.save] with the proven bound — the paper's headline
   artifact (Lemma 3.4).

   The traced repetition replays the scan pair by pair through the same
   public calls the scan makes for each round count (the packed 1-round
   closed form and the k ≥ 2 search, with the general game for ε pairs),
   so the rounds can be timed apart; its table must digest to the same
   pinned value, which proves it did the same work. *)

open Efgame

let n = 64
let k = 3
let budget = 50_000_000

type state = { cache : Cache.t; table : string }

let setup (cfg : Harness.cfg) () =
  let table = Filename.concat cfg.work "frontier.tbl" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ table; table ^ ".bak" ];
  { cache = Cache.create (); table }

let save st =
  match Persist.save ~bound:(k, n) st.cache st.table with
  | Ok _ -> true
  | Error _ -> false

(* Digest of every pair's ≡₃ verdict as the table records it, one
   letter per pair in scan order: N(ot_equiv), E(quiv), or - where the table holds
   no pair-level entry (pairs the scan refutes before the table is
   consulted). *)
let probe cache =
  let b = Buffer.create (n * (n + 1) / 2) in
  for q = 1 to n do
    for p = 0 to q - 1 do
      Buffer.add_char b
        (match Witness.table_verdict cache ~k p q with
        | Some false -> 'N'
        | Some true -> 'E'
        | None -> '-')
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The known answers: Exhausted n, and the pinned table and pair-verdict
   digests. *)
let check notes st ~exhausted =
  exhausted
  && Pinned.check notes "frontier pair verdicts" ~expected:(Pinned.frontier_64_pairs ())
       ~actual:(probe st.cache)
  && Pinned.check notes "frontier table digest" ~expected:(Pinned.frontier_64 ())
       ~actual:(Pinned.table_digest st.cache)

(* One untraced repetition: (wall, scan wall, scan statistics, ok). *)
let rep_untraced notes st =
  let t0 = Harness.now () in
  let outcome, stats = Witness.scan ~engine:(Witness.Cached st.cache) ~k ~max_n:n () in
  let t_scan = Harness.now () in
  let saved = save st in
  let ok = saved && check notes st ~exhausted:(outcome = Witness.Exhausted n) in
  (Harness.now () -. t0, t_scan -. t0, stats, ok)

let round_span j = if j = 1 then "unary.k1_s" else if j = 2 then "search.k2_s" else "search.k3_s"

(* One pair's monotone chain ≡₁, ≡₂, …, ≡_k, stopping at the first
   refutation, exactly as the scan decides it. Returns the verdict. *)
let chain spans st p q =
  let decide j =
    if p >= 1 then
      Spans.with_span spans (round_span j) (fun () ->
          let r, _, _ =
            Packed.solve_unary ~cache:st.cache ~store_depth:0 ~budget ~p ~q ~init:[] j
          in
          r)
    else
      let cfg =
        Spans.with_span spans "structure.build_s" (fun () ->
            Game.make "" (String.make q 'a'))
      in
      Spans.with_span spans (round_span j) (fun () ->
          match fst (Game.decide_with_stats ~budget ~cache:st.cache cfg j) with
          | Game.Equiv -> Some true
          | Game.Not_equiv -> Some false
          | Game.Unknown -> None)
  in
  let rec go j =
    match decide j with
    | Some true -> if j >= k then Some true else go (j + 1)
    | r -> r
  in
  go 1

let rep_traced notes spans st =
  let t0 = Harness.now () in
  let refuted = ref true in
  for q = 1 to n do
    for p = 0 to q - 1 do
      Spans.set_item spans (Witness.index_of_pair p q);
      if chain spans st p q <> Some false then refuted := false
    done
  done;
  Spans.set_item spans (-1);
  let saved = Spans.with_span spans "persist.save_s" (fun () -> save st) in
  let ok =
    Spans.with_span spans "check_s" (fun () ->
        saved && check notes st ~exhausted:!refuted)
  in
  (Harness.now () -. t0, ok)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
