(* spanner_corpus: the introduction's misspelling extractor (E18: the
   Extract Σ* · x{ acheive | begining } · Σ* ) and a ζ^= query pairing equal
   misspellings, evaluated through [Algebra.eval] on seeded documents of
   20 to 180 characters. Items are documents; each document gets one of
   the two queries.

   Known answers, per document: the row count from a plain substring
   count (no spanner code involved), and, computed once before timing,
   the relation from the independent vset-automaton evaluation
   ([Vset_algebra.of_algebra] on the Extract, then the same ζ^= filter);
   the anchor corpus's row counts are pinned. *)

open Spanner

type query = { expr : Algebra.expr; leaf : Algebra.expr }

type input = {
  docs : Gen.doc array;
  extract : query;
  select : query;
}

let setup (cfg : Harness.cfg) () =
  let wild = Regex_formula.of_regex (Regex_engine.Regex.all_words Gen.doc_sigma) in
  let x = Regex_formula.parse_exn "x{acheive|begining}" in
  let y = Regex_formula.parse_exn "y{acheive|begining}" in
  let cat = List.fold_right (fun a b -> Regex_formula.Cat (a, b)) in
  let e1 = Algebra.Extract (cat [ wild; x ] wild) in
  let e2 = Algebra.Extract (cat [ wild; x; wild; y ] wild) in
  {
    docs = Array.of_list (Gen.corpus ~seed:cfg.seed);
    extract = { expr = e1; leaf = e1 };
    select = { expr = Algebra.Select_eq ("x", "y", e2); leaf = e2 };
  }

let query inp (d : Gen.doc) = match d.query with `Extract -> inp.extract | `Select_eq -> inp.select

(* Occurrences of [w] in [s], by direct comparison. *)
let occurrences s w =
  let n = String.length s and m = String.length w in
  let c = ref 0 in
  for i = 0 to n - m do
    if String.sub s i m = w then incr c
  done;
  !c

(* Expected rows: one per occurrence of either word for the extractor;
   one per ordered pair of equal occurrences for ζ^= (the two words
   cannot overlap themselves or each other, so occurrences are
   disjoint). *)
let expected_rows (d : Gen.doc) =
  let a = occurrences d.text "acheive" and b = occurrences d.text "begining" in
  match d.query with
  | `Extract -> a + b
  | `Select_eq -> (a * (a - 1) / 2) + (b * (b - 1) / 2)

let row_counts docs =
  Array.to_list docs |> List.map (fun d -> string_of_int (expected_rows d)) |> String.concat ","

(* Reference relations from the vset automaton, with its compile and
   evaluation times. *)
let reference inp =
  let compile = ref 0. and eval = ref 0. in
  let rels =
    Array.map
      (fun (d : Gen.doc) ->
        let q = query inp d in
        let a, tc = Harness.timed (fun () -> Option.get (Vset_algebra.of_algebra q.leaf)) in
        let r, te = Harness.timed (fun () -> Vset_automaton.eval a d.text) in
        compile := !compile +. tc;
        eval := !eval +. te;
        match d.query with
        | `Extract -> r
        | `Select_eq -> Relation.select_string_eq ~doc:d.text "x" "y" r)
      inp.docs
  in
  (rels, !compile, !eval)

let check inp reference rels =
  let bad = ref 0 in
  Array.iteri
    (fun i r ->
      let d = inp.docs.(i) in
      let expected = expected_rows d + if !Pinned.corrupt && i = 0 then 1 else 0 in
      if Relation.cardinality r <> expected || not (Relation.equal r reference.(i)) then incr bad)
    rels;
  !bad

let rep_untraced inp reference =
  let items = ref [] in
  let t0 = Harness.now () in
  let rels =
    Array.map
      (fun (d : Gen.doc) ->
        let t = Harness.now () in
        let r = Algebra.eval (query inp d).expr d.text in
        items := ((Harness.now () -. t) *. 1000.) :: !items;
        r)
      inp.docs
  in
  let bad = check inp reference rels in
  (Harness.now () -. t0, !items, bad)

(* [by_query] accumulates each document's eval time under its query,
   for the extraction / selection split. *)
let rep_traced spans by_query inp reference =
  let t0 = Harness.now () in
  let rels =
    Array.mapi
      (fun i (d : Gen.doc) ->
        Spans.set_item spans i;
        let r, dt =
          Harness.timed (fun () ->
              Spans.with_span spans "spanner.eval_s" (fun () ->
                  Algebra.eval (query inp d).expr d.text))
        in
        let acc = if d.query = `Extract then fst by_query else snd by_query in
        acc := !acc +. dt;
        r)
      inp.docs
  in
  Spans.set_item spans (-1);
  let bad = Spans.with_span spans "check_s" (fun () -> check inp reference rels) in
  let rows = Array.fold_left (fun acc r -> acc + Relation.cardinality r) 0 rels in
  (Harness.now () -. t0, rows, bad)

(* Probe outside the timed repetitions: the leaf Extract of each ζ^=
   document evaluated on its own, so that eval time splits into
   extraction and selection. *)
let leaf_time inp =
  Array.fold_left
    (fun acc (d : Gen.doc) ->
      match d.query with
      | `Extract -> acc
      | `Select_eq -> acc +. snd (Harness.timed (fun () -> Algebra.eval inp.select.leaf d.text)))
    0. inp.docs

let workload (cfg : Harness.cfg) : input Harness.workload =
  let notes = ref [] in
  let inp = setup cfg () in
  let reference, vset_compile, vset_eval = reference inp in
  let anchor_ok =
    Pinned.check notes "spanner anchor row counts" ~expected:(Pinned.spanner_anchor ())
      ~actual:(row_counts (setup { cfg with seed = Gen.anchor_seed } ()).docs)
  in
  let rep (wall, items, bad) =
    if bad > 0 then
      notes := "MISMATCH spanner relations differ from the known answers" :: !notes;
    { Harness.wall; items; tried = Array.length inp.docs; bad }
  in
  let rows = ref 0 in
  let by_query = (ref 0., ref 0.) in
  let traced spans inp =
    let wall, r, bad = rep_traced spans by_query inp reference in
    rows := r;
    rep (wall, [], bad)
  in
  (* Extract documents are all extraction; a ζ^= document's eval splits
     into its leaf's own time and the selection on top of it *)
  let layers _ ~reps =
    let per_rep x = x /. float_of_int reps in
    let leaf = leaf_time inp in
    [
      ("spanner.extract_s", per_rep !(fst by_query) +. leaf);
      ("spanner.select_s", per_rep !(snd by_query) -. leaf);
      ("spanner.vset_compile_s", vset_compile);
      ("spanner.vset_eval_s", vset_eval);
      ("spanner.rows", float_of_int !rows);
    ]
  in
  {
    Harness.item_name = "document";
    min_reps = 3;
    setup = setup cfg;
    untraced = (fun inp -> rep (rep_untraced inp reference));
    traced;
    layers;
    notes = (fun () -> List.rev !notes);
    before = (1, if anchor_ok then 0 else 1);
  }

let run cfg = Harness.run cfg (workload cfg)
