(* word_games: ≡_k decisions on general binary word pairs (Theorem 3.2)
   through [Game.decide_with_stats] with one shared transposition table
   per repetition — the path [Witness.classes_words] and [efgame_cli
   --cache] take. Each repetition decides a fixed anchor slice (pinned
   verdicts) plus the seeded slice.

   Known answers: before timing, every pair is decided on the uncached
   path in both orientations; the two must agree, the anchor slice must
   match its pinned verdicts, and every timed repetition must reproduce
   that reference vector exactly. *)

open Efgame

(* Seeded slice per repetition: same-Parikh random pairs at k = 2,
   Primitive-Power-Lemma pairs at k = 2, and a small k = 3 slice of
   random pairs. The anchor slice is a smaller mix of the same three
   kinds. *)
let random = 144
let power = 12
let deep = 24
let anchor_pairs () = Gen.word_pairs ~seed:Gen.anchor_seed ~random:16 ~power:4 ~deep:4

type input = { anchor : Gen.pair array; pairs : Gen.pair array  (** anchor first *) }

let setup (cfg : Harness.cfg) () =
  let anchor = Array.of_list (anchor_pairs ()) in
  let seeded = Gen.word_pairs ~seed:cfg.seed ~random ~power ~deep in
  { anchor; pairs = Array.append anchor (Array.of_list seeded) }

let letter = function Game.Equiv -> 'E' | Game.Not_equiv -> 'N' | Game.Unknown -> 'U'

let anchor_string inp verdicts = String.init (Array.length inp.anchor) (fun i -> verdicts.(i))

(* The independent reference: uncached path, both orientations. *)
let reference notes inp =
  let failed = ref 0 in
  let v =
    Array.map
      (fun (p : Gen.pair) ->
        let d l r = letter (Game.equiv l r p.k) in
        let a = d p.left p.right and b = d p.right p.left in
        if a <> b || a = 'U' then begin
          incr failed;
          notes :=
            Printf.sprintf "MISMATCH %s vs %s at k=%d: %c, swapped %c" p.left p.right p.k a b
            :: !notes
        end;
        a)
      inp.pairs
  in
  if
    not
      (Pinned.check notes "word-games anchor verdicts (uncached)"
         ~expected:(Pinned.word_anchor ()) ~actual:(anchor_string inp v))
  then incr failed;
  (v, !failed)

(* Compare a repetition's verdicts with the reference and the pin;
   returns the number of failed pairs. *)
let check notes inp reference verdicts =
  let bad = ref 0 in
  Array.iteri (fun i v -> if v <> reference.(i) || v = 'U' then incr bad) verdicts;
  if !bad > 0 then
    notes := Printf.sprintf "MISMATCH %d verdicts differ from the uncached reference" !bad :: !notes;
  let pinned =
    Pinned.check notes "word-games anchor verdicts" ~expected:(Pinned.word_anchor ())
      ~actual:(anchor_string inp verdicts)
  in
  if pinned then !bad else max 1 !bad

let rep_untraced notes inp reference =
  let cache = Cache.create () in
  let items = ref [] in
  let t0 = Harness.now () in
  let verdicts =
    Array.map
      (fun (p : Gen.pair) ->
        let t = Harness.now () in
        let v, _ = Game.decide_with_stats ~cache (Game.make p.left p.right) p.k in
        items := ((Harness.now () -. t) *. 1000.) :: !items;
        letter v)
      inp.pairs
  in
  let bad = check notes inp reference verdicts in
  (Harness.now () -. t0, !items, bad)

let rep_traced notes spans inp reference =
  let cache = Cache.create () in
  let t0 = Harness.now () in
  let verdicts =
    Array.mapi
      (fun i (p : Gen.pair) ->
        Spans.set_item spans i;
        let g = Spans.with_span spans "structure.build_s" (fun () -> Game.make p.left p.right) in
        let name = if p.k = 2 then "search.k2_s" else "search.k3_s" in
        letter (fst (Spans.with_span spans name (fun () -> Game.decide_with_stats ~cache g p.k))))
      inp.pairs
  in
  Spans.set_item spans (-1);
  let bad = Spans.with_span spans "check_s" (fun () -> check notes inp reference verdicts) in
  (Harness.now () -. t0, cache, bad)

let universe_size inp =
  Array.fold_left
    (fun acc (p : Gen.pair) ->
      let l, r = Game.structures (Game.make p.left p.right) in
      acc + Fc.Structure.universe_size l + Fc.Structure.universe_size r)
    0 inp.pairs

let workload (cfg : Harness.cfg) : input Harness.workload =
  let notes = ref [] in
  let inp = setup cfg () in
  let n = Array.length inp.pairs in
  let (reference, ref_failed), ref_s = Harness.timed (fun () -> reference notes inp) in
  let count c = Array.fold_left (fun acc v -> if v = c then acc + 1 else acc) 0 reference in
  let mix =
    Printf.sprintf
      "pairs per repetition: %d (anchor %d; seeded %d random k=2, %d power-family k=2, %d \
       random k=3); verdicts %d Equiv / %d Not_equiv; uncached reference (both \
       orientations, untimed) %.2f s"
      n (Array.length inp.anchor) random power deep (count 'E') (count 'N') ref_s
  in
  let extra = ref [] in
  let untraced inp =
    let wall, items, bad = rep_untraced notes inp reference in
    { Harness.wall; items; tried = n; bad }
  in
  let traced spans inp =
    let wall, cache, bad =
      Layers.with_counters (fun () -> rep_traced notes spans inp reference)
    in
    extra := Layers.snapshot_counters () @ Layers.cache_counters [ cache ];
    { Harness.wall; items = []; tried = n; bad }
  in
  {
    Harness.item_name = "pair";
    min_reps = 3;
    setup = setup cfg;
    untraced;
    traced;
    layers =
      (fun _ ~reps:_ -> ("structure.universe_size", float_of_int (universe_size inp)) :: !extra);
    notes = (fun () -> mix :: List.rev !notes);
    before = (n, ref_failed);
  }

let run cfg = Harness.run cfg (workload cfg)
