open Spanner

let check = Alcotest.(check bool)
let docs = Words.Word.enumerate ~alphabet:[ 'a'; 'b' ] ~max_len:6

(* Reference semantics by brute force, sharing no evaluation code with the
   library: a memo-free matcher that forces each x{…} onto x's assigned
   span (an unassigned x is unconstrained) runs on every assignment of
   spans to the formula's variables, one variable at a time; a partial
   assignment that already fails has no matching completion. Exact for
   functional formulas. *)
let oracle f doc =
  let n = String.length doc in
  let rec exists i j p = i <= j && (p i || exists (i + 1) j p) in
  let rec matches (f : Regex_formula.t) env i j =
    match f with
    | Empty -> false
    | Eps -> i = j
    | Char c -> j = i + 1 && doc.[i] = c
    | Alt (a, b) -> matches a env i j || matches b env i j
    | Cat (a, b) -> exists i j (fun m -> matches a env i m && matches b env m j)
    | Star a -> i = j || exists (i + 1) j (fun m -> matches a env i m && matches f env m j)
    | Bind (x, a) ->
        (match List.assoc_opt x env with Some s -> s = (i, j) | None -> true) && matches a env i j
  in
  let spans = List.concat (List.init (n + 1) (fun i -> List.init (n + 1 - i) (fun d -> (i, i + d)))) in
  let rec assign env = function
    | [] -> [ env ]
    | x :: rest ->
        List.concat_map
          (fun s -> if matches f ((x, s) :: env) 0 n then assign ((x, s) :: env) rest else [])
          spans
  in
  let vars = Regex_formula.vars f in
  let rows = if matches f [] 0 n then assign [] vars else [] in
  if rows = [] then Relation.empty vars
  else Relation.of_assoc (List.map (List.map (fun (x, (i, j)) -> (x, Span.make i j))) rows)

(* The automaton and [Algebra.eval (Extract _)] both agree with the oracle
   on every {a,b} document up to length 6. *)
let relation_agrees src =
  let rf = Regex_formula.parse_exn src in
  let va = Vset_automaton.of_regex_formula rf in
  List.iter
    (fun doc ->
      let expected = oracle rf doc in
      if not (Relation.equal expected (Vset_automaton.eval va doc)) then
        Alcotest.failf "%s: oracle/automaton disagree on %S" src doc;
      if not (Relation.equal expected (Algebra.eval (Algebra.Extract rf) doc)) then
        Alcotest.failf "%s: oracle/Algebra.eval disagree on %S" src doc)
    docs

let test_agreement_simple () = relation_agrees "x{a*}y{b*}"
let test_agreement_anywhere () = relation_agrees "(a|b)*x{ab}(a|b)*"
let test_agreement_nested () = relation_agrees "x{a y{b*} a}"
let test_agreement_alt () = relation_agrees "x{aa}|x{bb}"
let test_agreement_varfree () = relation_agrees "(ab)*"

let test_agreement_battery () =
  List.iter relation_agrees
    [
      "x{(a|b)+}y{(a|b)+}";
      "x{(a|b)*}y{(a|b)*}z{(a|b)*}";
      "(a*)*x{b?}(a|b)*";
      "%0";
      "%e";
      "x{%e}(a|b)*";
      "(x{a}|x{b})y{(ab)*}(a|b)*";
    ]

let test_functionality () =
  let functional src expected =
    let va = Vset_automaton.of_regex_formula (Regex_formula.parse_exn src) in
    if Vset_automaton.is_functional va <> expected then
      Alcotest.failf "functionality of %s: expected %b" src expected
  in
  functional "x{a*}y{b*}" true;
  functional "x{a}|x{b}" true;
  functional "x{a}|b" false;
  (* alternation binding x on one side only *)
  functional "(x{a})*" false (* the star may skip the binding *)

let test_hand_built () =
  (* ⊢x a x⊣ b : extracts the a-span before a b *)
  let va =
    Vset_automaton.make ~states:5 ~start:0 ~accepting:[ 4 ]
      ~transitions:
        [
          (0, Vset_automaton.Open "x", 1);
          (1, Vset_automaton.Read 'a', 2);
          (2, Vset_automaton.Close "x", 3);
          (3, Vset_automaton.Read 'b', 4);
        ]
  in
  check "functional" true (Vset_automaton.is_functional va);
  let rel = Vset_automaton.eval va "ab" in
  Alcotest.(check (list (list string)))
    "span content"
    [ [ "a" ] ]
    (Relation.to_word_tuples ~doc:"ab" ~vars:[ "x" ] rel);
  check "rejects other docs" true (Relation.is_empty (Vset_automaton.eval va "ba"))

let test_incomplete_runs_dropped () =
  (* an automaton that can accept without closing x yields no row for that
     run and is flagged non-functional *)
  let va =
    Vset_automaton.make ~states:2 ~start:0 ~accepting:[ 0; 1 ]
      ~transitions:[ (0, Vset_automaton.Open "x", 1) ]
  in
  check "non functional" false (Vset_automaton.is_functional va);
  check "no rows" true (Relation.is_empty (Vset_automaton.eval va ""))

let test_run_count () =
  (* (a|a) ambiguity merges into one configuration; distinct spans stay
     distinct *)
  let rf = Regex_formula.parse_exn "x{a}|x{a}" in
  let va = Vset_automaton.of_regex_formula rf in
  Alcotest.(check int) "merged configurations" 1 (Vset_automaton.run_count va "a");
  (* note: "ax{a}" would parse as a binding named "ax"; parenthesize *)
  let rf2 = Regex_formula.parse_exn "x{a}a|(a)x{a}" in
  let va2 = Vset_automaton.of_regex_formula rf2 in
  Alcotest.(check int) "two spans" 2 (Vset_automaton.run_count va2 "aa");
  Alcotest.(check int) "two rows" 2 (Relation.cardinality (Vset_automaton.eval va2 "aa"))

let test_bad_state () =
  Alcotest.check_raises "state range" (Invalid_argument "Vset_automaton.make: state out of range")
    (fun () ->
      ignore
        (Vset_automaton.make ~states:1 ~start:0 ~accepting:[ 2 ] ~transitions:[]))

let tests =
  ( "vset-automata",
    [
      Alcotest.test_case "formula/automaton agreement: chain" `Quick test_agreement_simple;
      Alcotest.test_case "agreement: anywhere" `Quick test_agreement_anywhere;
      Alcotest.test_case "agreement: nested" `Quick test_agreement_nested;
      Alcotest.test_case "agreement: alternation" `Quick test_agreement_alt;
      Alcotest.test_case "agreement: variable-free" `Quick test_agreement_varfree;
      Alcotest.test_case "agreement: oracle battery" `Quick test_agreement_battery;
      Alcotest.test_case "functionality" `Quick test_functionality;
      Alcotest.test_case "hand built" `Quick test_hand_built;
      Alcotest.test_case "incomplete runs dropped" `Quick test_incomplete_runs_dropped;
      Alcotest.test_case "run counting" `Quick test_run_count;
      Alcotest.test_case "validation" `Quick test_bad_state;
    ] )
