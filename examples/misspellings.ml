(* The introduction's motivating information-extraction scenario:
   find misspellings with a regex formula, then post-process the extracted
   span relation with the (generalized) core spanner algebra.

   Run with: dune exec examples/misspellings.exe *)

let document =
  "theyacheivedmuchatthebeginingbutwetherreportsacheivelittle"

let () =
  Format.printf "document: %s@.@." document;

  (* γ(x) = Σ* · x{acheive ∨ begining ∨ wether} · Σ* *)
  let gamma = Spanner.Regex_formula.parse_exn "x{acheive|begining|wether}" in
  let occurrences = Spanner.Algebra.matches_anywhere gamma document in
  Format.printf "γ extracts %d spans:@." (Spanner.Relation.cardinality occurrences);
  Format.printf "  %a@.@." (Spanner.Relation.pp ~doc:document) occurrences;

  (* Algebra: join two extractions and keep pairs reading the same factor
     at different positions — the ζ^= operator that separates core spanners
     from regular spanners. *)
  let pairs =
    Spanner.Algebra.Select_rel
      ( Spanner.Selectable.make ~name:"distinct-spans" ~arity:2 (fun _ -> true),
        [ "x"; "y" ],
        Spanner.Algebra.Select_eq
          ( "x",
            "y",
            Spanner.Algebra.Join
              ( Spanner.Algebra.Extract
                  (Spanner.Regex_formula.parse_exn
                     "(a|b|c|d|e|g|h|i|l|m|n|o|p|r|s|t|u|v|w|y)*x{acheive|begining|wether}(a|b|c|d|e|g|h|i|l|m|n|o|p|r|s|t|u|v|w|y)*"),
                Spanner.Algebra.Extract
                  (Spanner.Regex_formula.parse_exn
                     "(a|b|c|d|e|g|h|i|l|m|n|o|p|r|s|t|u|v|w|y)*y{acheive|begining|wether}(a|b|c|d|e|g|h|i|l|m|n|o|p|r|s|t|u|v|w|y)*") ) ) )
  in
  let result = Spanner.Algebra.eval pairs document in
  let repeated =
    Spanner.Relation.select
      (fun row -> match row with [ sx; sy ] -> Spanner.Span.compare sx sy < 0 | _ -> false)
      result
  in
  Format.printf "ζ^=-joined pairs (same misspelling at two positions):@.";
  Format.printf "  %a@.@." (Spanner.Relation.pp ~doc:document) repeated;

  (* The paper's point: some post-processing is NOT available to any
     generalized core spanner. ζ^{Num_a} below works in this engine only
     because ζ^R is a primitive here — Theorem 5.5 proves no combination
     of ∪, π, ⋈, ∖, ζ^= could express it. *)
  let tuples =
    Spanner.Algebra.selected_words
      (Spanner.Algebra.Select_rel
         ( Spanner.Selectable.num 'e',
           [ "x"; "y" ],
           Spanner.Algebra.Select_rel
             ( Spanner.Selectable.make ~name:"true" ~arity:2 (fun _ -> true),
               [ "x"; "y" ],
               Spanner.Algebra.Join
                 ( Spanner.Algebra.Extract
                     (Spanner.Regex_formula.parse_exn
                        "(a|b|c|d|e|g|h|i|l|m|n|o|p|r|s|t|u|v|w|y)*x{acheive|begining|wether}(a|b|c|d|e|g|h|i|l|m|n|o|p|r|s|t|u|v|w|y)*"),
                   Spanner.Algebra.Extract
                     (Spanner.Regex_formula.parse_exn
                        "(a|b|c|d|e|g|h|i|l|m|n|o|p|r|s|t|u|v|w|y)*y{acheive|begining|wether}(a|b|c|d|e|g|h|i|l|m|n|o|p|r|s|t|u|v|w|y)*") ) ) ))
      ~vars:[ "x"; "y" ] document
  in
  Format.printf "pairs with equally many letters 'e' (a ζ^R selection):@.";
  List.iter (fun t -> Format.printf "  (%s)@." (String.concat ", " t)) tuples
