(* Differential checks against the brute-force oracle (test/oracle.ml),
   which imports nothing from the solver libraries. The oracle first
   reproduces the paper's committed facts on its own; then every solver
   path must agree with it on every {a,b} word pair up to length 5
   (k = 1, 2) and on the unary grids a^p vs a^q (p ≤ q ≤ 16 at k = 2,
   p ≤ q ≤ 9 at k = 3); the existential game is checked against the
   oracle's one-sided variant on the same instances, both ways round. *)

open Efgame

let unary n = String.make n 'a'

let verdict = Alcotest.testable Game.pp_verdict (fun a b -> a = b)
let of_bool b = if b then Game.Equiv else Game.Not_equiv

(* ------------------------------------------------------------------ *)
(* Self-test: the oracle alone reproduces EXPERIMENTS E2. *)

let oracle_minimal_pair k =
  let rec go q p =
    if p >= q then go (q + 1) 0
    else if Oracle.equiv (unary p) (unary q) k then (p, q)
    else go q (p + 1)
  in
  go 1 0

let oracle_classes k max_n =
  List.fold_left
    (fun classes n ->
      let rec place = function
        | [] -> [ [ n ] ]
        | c :: rest ->
            if Oracle.equiv (unary (List.hd c)) (unary n) k then (c @ [ n ]) :: rest
            else c :: place rest
      in
      place classes)
    []
    (List.init (max_n + 1) Fun.id)

let test_self_paper_facts () =
  Alcotest.(check (pair int int)) "≡₁ minimal pair" (3, 4) (oracle_minimal_pair 1);
  Alcotest.(check (pair int int)) "≡₂ minimal pair" (12, 14) (oracle_minimal_pair 2);
  Alcotest.(check (list (list int)))
    "≡₂ classes of a^0..a^16"
    (List.init 12 (fun i -> [ i ]) @ [ [ 12; 14; 16 ]; [ 13; 15 ] ])
    (oracle_classes 2 16)

(* ------------------------------------------------------------------ *)
(* Instances *)

let words_upto n =
  let rec of_len l =
    if l = 0 then [ "" ]
    else List.concat_map (fun w -> [ w ^ "a"; w ^ "b" ]) (of_len (l - 1))
  in
  List.concat_map of_len (List.init (n + 1) Fun.id)

(* unordered pairs, the diagonal included *)
let ab_pairs =
  let ws = Array.of_list (words_upto 5) in
  let n = Array.length ws in
  List.concat
    (List.init n (fun i -> List.init (n - i) (fun j -> (ws.(i), ws.(i + j)))))

let unary_pairs ~max_n =
  List.concat
    (List.init (max_n + 1) (fun p ->
         List.init (max_n - p + 1) (fun d -> (unary p, unary (p + d)))))

let at k = List.map (fun (w, v) -> (w, v, k))

(* every path through Game.decide (the unary search on unary words, the
   general search on the rest): uncached, one shared table, and
   width-limited searches whose Equiv must be genuine *)
let check_all_paths ~cache instances =
  List.iter
    (fun (w, v, k) ->
      let label = Printf.sprintf "%S vs %S @%d" w v k in
      let expect = of_bool (Oracle.equiv w v k) in
      let cfg = Game.make w v in
      Alcotest.check verdict (label ^ " uncached") expect (Game.decide cfg k);
      Alcotest.check verdict (label ^ " cached") expect
        (Game.decide ~cache cfg k);
      List.iter
        (fun width ->
          if Game.decide ~mode:(Game.Duplicator_limited width) cfg k = Game.Equiv
          then
            Alcotest.check verdict
              (Printf.sprintf "%s width %d" label width)
              expect Game.Equiv)
        [ 1; 3 ])
    instances

let test_ab_words () =
  let cache = Cache.create () in
  check_all_paths ~cache (at 1 ab_pairs @ at 2 ab_pairs)

let test_unary_grids () =
  let cache = Cache.create () in
  check_all_paths ~cache (at 2 (unary_pairs ~max_n:16) @ at 3 (unary_pairs ~max_n:9))

let test_existential () =
  List.iter
    (fun (w, v, k) ->
      List.iter
        (fun (w, v) ->
          Alcotest.check verdict
            (Printf.sprintf "%S ⇛ %S @%d" w v k)
            (of_bool (Oracle.existential w v k))
            (Existential.equiv w v k))
        [ (w, v); (v, w) ])
    (at 1 ab_pairs @ at 2 ab_pairs
    @ at 2 (unary_pairs ~max_n:16)
    @ at 3 (unary_pairs ~max_n:9))

let tests =
  ( "oracle",
    [
      Alcotest.test_case "self-test: paper facts (E2)" `Quick
        test_self_paper_facts;
      Alcotest.test_case "differential: {a,b} words up to length 5" `Quick
        test_ab_words;
      Alcotest.test_case "differential: unary grids" `Quick test_unary_grids;
      Alcotest.test_case "existential differential" `Quick test_existential;
    ] )
