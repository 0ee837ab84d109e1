open Spanner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let span = Span.make

let test_span_basics () =
  check_int "length" 3 (Span.length (span 2 5));
  Alcotest.(check string) "content" "bc" (Span.content "abcd" (span 1 3));
  check "string equal" true (Span.string_equal "abab" (span 0 2) (span 2 4));
  check "not string equal" false (Span.string_equal "abab" (span 0 2) (span 1 3));
  check_int "all spans of len 2" 6 (List.length (Span.all "ab"));
  Alcotest.check_raises "negative" (Invalid_argument "Span.make") (fun () ->
      ignore (span 3 2))

let test_relation_ops () =
  let r1 = Relation.of_assoc [ [ ("x", span 0 1); ("y", span 1 2) ]; [ ("x", span 0 2); ("y", span 2 2) ] ] in
  let r2 = Relation.of_assoc [ [ ("y", span 1 2); ("z", span 0 0) ] ] in
  check_int "cardinality" 2 (Relation.cardinality r1);
  let j = Relation.natural_join r1 r2 in
  Alcotest.(check (list string)) "join schema" [ "x"; "y"; "z" ] (Relation.schema j);
  check_int "join rows" 1 (Relation.cardinality j);
  let p = Relation.project [ "x" ] r1 in
  check_int "projection" 2 (Relation.cardinality p);
  let u = Relation.union r1 r1 in
  check_int "union dedup" 2 (Relation.cardinality u);
  let d = Relation.diff r1 r1 in
  check "diff empty" true (Relation.is_empty d);
  Alcotest.check_raises "schema mismatch" (Invalid_argument "Relation.union: schema mismatch")
    (fun () -> ignore (Relation.union r1 r2))

let test_string_eq_selection () =
  let doc = "abab" in
  let r =
    Relation.of_assoc
      [
        [ ("x", span 0 2); ("y", span 2 4) ];
        [ ("x", span 0 2); ("y", span 1 3) ];
      ]
  in
  let selected = Relation.select_string_eq ~doc "x" "y" r in
  check_int "zeta= keeps matching factor" 1 (Relation.cardinality selected);
  Alcotest.(check (list (list string)))
    "word tuples"
    [ [ "ab"; "ab" ] ]
    (Relation.to_word_tuples ~doc ~vars:[ "x"; "y" ] selected)

let test_regex_formula_parse () =
  List.iter
    (fun src ->
      match Regex_formula.parse src with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "parse %s: %s" src e)
    [ "x{a*}"; "(a|b)*x{ab}(a|b)*"; "x{a*}y{b*}"; "x{ay{b}c}" ];
  check "functional" true (Regex_formula.is_functional (Regex_formula.parse_exn "x{a*}y{b*}"));
  check "non-functional star" false
    (Regex_formula.is_functional (Regex_formula.parse_exn "(x{a})*"));
  check "non-functional alt" false
    (Regex_formula.is_functional (Regex_formula.parse_exn "x{a}|b"));
  check "functional alt" true
    (Regex_formula.is_functional (Regex_formula.parse_exn "x{a}|x{b}"))

let test_regex_formula_eval () =
  let f = Regex_formula.parse_exn "x{a*}y{(ba)*}" in
  let rel = Algebra.eval (Algebra.Extract f) "aaba" in
  Alcotest.(check (list (list string)))
    "unique decomposition"
    [ [ "aa"; "ba" ] ]
    (Relation.to_word_tuples ~doc:"aaba" ~vars:[ "x"; "y" ] rel);
  let g = Regex_formula.parse_exn "x{(a|b)*}y{(a|b)*}" in
  check_int "all splits" 4 (Relation.cardinality (Algebra.eval (Algebra.Extract g) "aba"))

let test_non_functional_extract () =
  (* the automaton alone would silently drop the run that skips x *)
  Alcotest.check_raises "x{a}|b"
    (Invalid_argument "Algebra.eval: regex formula is not functional") (fun () ->
      ignore (Algebra.eval (Algebra.Extract (Regex_formula.parse_exn "x{a}|b")) "b"))

let test_misspelling_scenario () =
  (* the introduction's extractor: Σ* · x{acheive ∨ begining} · Σ* *)
  let f = Regex_formula.parse_exn "x{acheive|begining}" in
  let doc = "iacheiveandbegining" in
  let rel = Algebra.matches_anywhere f doc in
  Alcotest.(check (list (list string)))
    "found misspellings"
    [ [ "acheive" ]; [ "begining" ] ]
    (Relation.to_word_tuples ~doc ~vars:[ "x" ] rel)

let test_algebra () =
  let doc = "abab" in
  let e =
    Algebra.Select_eq
      ( "x",
        "y",
        Algebra.Extract (Regex_formula.parse_exn "x{(a|b)+}y{(a|b)+}") )
  in
  Alcotest.(check (list string)) "schema" [ "x"; "y" ] (Algebra.schema e);
  check "core" true (Algebra.is_core e);
  check "generalized" true (Algebra.is_generalized_core e);
  let result = Algebra.eval e doc in
  Alcotest.(check (list (list string)))
    "equal halves"
    [ [ "ab"; "ab" ] ]
    (Relation.to_word_tuples ~doc ~vars:[ "x"; "y" ] result);
  let diff_expr = Algebra.Diff (e, e) in
  check "diff not core" false (Algebra.is_core diff_expr);
  check "diff still generalized" true (Algebra.is_generalized_core diff_expr);
  check "diff empty" true (Relation.is_empty (Algebra.eval diff_expr doc))

let test_select_rel () =
  let doc = "aabb" in
  let e =
    Algebra.Select_rel
      ( Selectable.len_eq,
        [ "x"; "y" ],
        Algebra.Extract (Regex_formula.parse_exn "x{a*}y{b*}") )
  in
  check "zeta^R not generalized core" false (Algebra.is_generalized_core e);
  Alcotest.(check (list (list string)))
    "length-equal split"
    [ [ "aa"; "bb" ] ]
    (Relation.to_word_tuples ~doc ~vars:[ "x"; "y" ] (Algebra.eval e doc))

let test_selectable () =
  check "num" true (Selectable.holds (Selectable.num 'a') [ "aab"; "aba" ]);
  check "add" true (Selectable.holds Selectable.add [ "a"; "bb"; "xyz" ]);
  check "complement" true
    (Selectable.holds (Selectable.complement Selectable.len_eq) [ "a"; "bb" ]);
  Alcotest.check_raises "arity" (Invalid_argument "Selectable.holds: Add expects arity 3")
    (fun () -> ignore (Selectable.holds Selectable.add [ "a"; "b" ]));
  check_int "paper relations" 8 (List.length Selectable.all_paper_relations)

let test_boolean_spanner () =
  (* Boolean spanner defining a*b* via projection to the empty schema *)
  let e =
    Algebra.Project ([], Algebra.Extract (Regex_formula.parse_exn "x{a*}y{b*}"))
  in
  check "accepts" true (Algebra.define_language e "aabb");
  check "rejects" false (Algebra.define_language e "aba")

let tests =
  ( "spanner",
    [
      Alcotest.test_case "spans" `Quick test_span_basics;
      Alcotest.test_case "relations" `Quick test_relation_ops;
      Alcotest.test_case "string-equality selection" `Quick test_string_eq_selection;
      Alcotest.test_case "regex formula parsing" `Quick test_regex_formula_parse;
      Alcotest.test_case "regex formula evaluation" `Quick test_regex_formula_eval;
      Alcotest.test_case "non-functional extract raises" `Quick test_non_functional_extract;
      Alcotest.test_case "misspelling scenario" `Quick test_misspelling_scenario;
      Alcotest.test_case "algebra" `Quick test_algebra;
      Alcotest.test_case "custom selections" `Quick test_select_rel;
      Alcotest.test_case "selectable relations" `Quick test_selectable;
      Alcotest.test_case "boolean spanners" `Quick test_boolean_spanner;
    ] )
