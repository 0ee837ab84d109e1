open Efgame

let unary n = String.make n 'a'
let check = Alcotest.(check bool)

let verdict =
  Alcotest.testable Game.pp_verdict (fun a b -> a = b)

let test_section3_example () =
  (* Spoiler wins the 2-round game on a^{2i} vs a^{2i-1} *)
  List.iter
    (fun i ->
      Alcotest.check verdict
        (Printf.sprintf "a^%d vs a^%d" (2 * i) ((2 * i) - 1))
        Game.Not_equiv
        (Game.equiv (unary (2 * i)) (unary ((2 * i) - 1)) 2))
    [ 1; 2; 3; 4 ]

let test_zero_rounds () =
  Alcotest.check verdict "same alphabet" Game.Equiv (Game.equiv "ab" "ba" 0);
  Alcotest.check verdict "different alphabet" Game.Not_equiv (Game.equiv "ab" "aa" 0);
  Alcotest.check verdict "eps vs a: const a is bottom on one side" Game.Not_equiv
    (Game.equiv ~sigma:[ 'a' ] "" "a" 0)

let test_known_pairs () =
  Alcotest.check verdict "(3,4) @1" Game.Equiv (Game.equiv (unary 3) (unary 4) 1);
  Alcotest.check verdict "(2,3) @1" Game.Not_equiv (Game.equiv (unary 2) (unary 3) 1);
  Alcotest.check verdict "(12,14) @2" Game.Equiv (Game.equiv (unary 12) (unary 14) 2);
  Alcotest.check verdict "(12,13) @2" Game.Not_equiv (Game.equiv (unary 12) (unary 13) 2);
  Alcotest.check verdict "(11,13) @2" Game.Not_equiv (Game.equiv (unary 11) (unary 13) 2)

let test_equal_words () =
  Alcotest.check verdict "identity @3" Game.Equiv (Game.equiv "abab" "abab" 3);
  Alcotest.check verdict "identity unary @3" Game.Equiv (Game.equiv (unary 5) (unary 5) 3)

let test_monotone_in_k () =
  (* ≡_{k+1} ⊆ ≡_k : if equivalent at k, equivalent at every j < k *)
  List.iter
    (fun (w, v, k) ->
      if Game.equiv w v k = Game.Equiv then
        List.iter
          (fun j ->
            if Game.equiv w v j <> Game.Equiv then
              Alcotest.failf "monotonicity violated for (%s,%s) j=%d" w v j)
          (List.init k Fun.id))
    [ (unary 3, unary 4, 1); (unary 12, unary 14, 2); ("abab", "abab", 3) ]

let test_budget_unknown () =
  Alcotest.check verdict "tiny budget gives unknown" Game.Unknown
    (Game.equiv ~budget:3 (unary 12) (unary 14) 2)

let test_limited_mode_sound () =
  (* Duplicator-limited Equiv answers must be genuinely equivalent *)
  Alcotest.check verdict "limited on true pair" Game.Equiv
    (Game.equiv ~mode:(Game.Duplicator_limited 4) (unary 3) (unary 4) 1);
  (* on inequivalent pairs it may say Unknown but never Equiv *)
  let v = Game.equiv ~mode:(Game.Duplicator_limited 4) (unary 2) (unary 3) 1 in
  check "never false Equiv" true (v <> Game.Equiv)

let show_line line =
  String.concat "; "
    (List.map
       (fun ((m : Game.move), r) ->
         Format.asprintf "%a→%s" Game.pp_move m
           (match r with Some s when s <> "" -> s | Some _ -> "ε" | None -> "stuck"))
       line)

let test_winning_line () =
  (match Game.winning_line (Game.make (unary 2) (unary 3)) 2 with
  | None -> Alcotest.fail "expected spoiler win"
  | Some line ->
      check "line nonempty" true (List.length line >= 1);
      check "line bounded by k" true (List.length line <= 2));
  (* EXPERIMENTS E1's lines on a^2i vs a^(2i-1), pinned: a changed move
     or reply order shows up as a diff *)
  List.iter
    (fun (i, expect) ->
      let w = unary (2 * i) and v = unary ((2 * i) - 1) in
      match Game.winning_line (Game.make w v) 2 with
      | None -> Alcotest.failf "a^%d vs a^%d: expected a line" (2 * i) ((2 * i) - 1)
      | Some line ->
          Alcotest.(check string)
            (Printf.sprintf "E1 line, i = %d" i)
            expect (show_line line))
    [
      (1, "L:aa→stuck");
      (2, "L:aaaa→aaa; L:aaa→stuck");
      (3, "L:aaaaaa→aaaaa; L:aaa→stuck");
      (4, "L:aaaaaaaa→aaaaaaa; L:aaaa→stuck");
    ]

let test_winning_line_none () =
  Alcotest.(check bool) "no line on equivalent pair" true
    (Game.winning_line (Game.make (unary 3) (unary 4)) 1 = None)

let test_solver_positions () =
  let cfg = Game.make (unary 12) (unary 14) in
  let s = Game.solver cfg in
  Alcotest.check verdict "empty position" Game.Equiv (Game.solver_wins s [] 2);
  Alcotest.check verdict "good position" Game.Equiv
    (Game.solver_wins s [ (unary 12, unary 14) ] 1);
  Alcotest.check verdict "broken position rejected" Game.Not_equiv
    (Game.solver_wins s [ (unary 2, unary 3) ] 0)

let test_mixed_alphabet () =
  Alcotest.check verdict "ab vs ba @1" Game.Not_equiv (Game.equiv "ab" "ba" 1);
  Alcotest.check verdict "ab vs ba @0" Game.Equiv (Game.equiv "ab" "ba" 0);
  (* abab and baba share every strict factor, so one round cannot separate
     them; two rounds can (whole word, then the aba·b decomposition) *)
  Alcotest.check verdict "abab vs baba @1" Game.Equiv (Game.equiv "abab" "baba" 1);
  Alcotest.check verdict "abab vs baba @2" Game.Not_equiv (Game.equiv "abab" "baba" 2)

let test_anbn_example () =
  (* Example 4.4's conclusion at k = 1: a^q b^p ≡_1 a^p b^p with (3,4) *)
  Alcotest.check verdict "a4b3 vs a3b3 @1" Game.Equiv
    (Game.equiv (unary 4 ^ "bbb") (unary 3 ^ "bbb") 1)

let tests =
  ( "game",
    [
      Alcotest.test_case "Section 3 example" `Quick test_section3_example;
      Alcotest.test_case "zero rounds" `Quick test_zero_rounds;
      Alcotest.test_case "known unary pairs" `Quick test_known_pairs;
      Alcotest.test_case "equal words" `Quick test_equal_words;
      Alcotest.test_case "monotone in k" `Quick test_monotone_in_k;
      Alcotest.test_case "budget yields unknown" `Quick test_budget_unknown;
      Alcotest.test_case "limited mode sound" `Quick test_limited_mode_sound;
      Alcotest.test_case "winning line" `Quick test_winning_line;
      Alcotest.test_case "winning line absent" `Quick test_winning_line_none;
      Alcotest.test_case "solver positions" `Quick test_solver_positions;
      Alcotest.test_case "mixed alphabets" `Quick test_mixed_alphabet;
      Alcotest.test_case "Example 4.4 at k=1" `Quick test_anbn_example;
    ] )
