(* The solver engine against the brute-force oracle (test/oracle.ml),
   which shares no code with it: on every instance each solver path —
   the general search with and without a shared table, budgets, initial
   positions, width limits, the unary search — must return the oracle's
   verdict (an exact one), [Unknown] only where a budget or width cuts
   the search short, and never a wrong one. Plus the arena discipline:
   per-domain scratch reuse across solves must never let one solve's
   configurations alias into the next. *)

open Efgame

let unary n = String.make n 'a'

let verdict = Alcotest.testable Game.pp_verdict (fun a b -> a = b)
let of_bool b = if b then Game.Equiv else Game.Not_equiv

let of_result = function
  | Some b -> of_bool b
  | None -> Game.Unknown

(* oracle verdicts are deterministic: compute each once per test run *)
let oracle_tbl = Hashtbl.create 256

let oracle ?(pairs = []) w v k =
  let key = (w, v, pairs, k) in
  match Hashtbl.find_opt oracle_tbl key with
  | Some b -> b
  | None ->
      let b = Oracle.equiv ~pairs w v k in
      Hashtbl.replace oracle_tbl key b;
      b

(* unary pairs straddling the ≡₁/≡₂ frontiers, ε, the same-word
   diagonal, mixed alphabets, non-unary shapes *)
let instances =
  [
    ("", "a", 0);
    ("", "", 2);
    ("", "ab", 1);
    ("a", "a", 2);
    ("ab", "ba", 0);
    ("ab", "ba", 1);
    ("ab", "aa", 0);
    (unary 2, unary 1, 2);
    (unary 4, unary 3, 2);
    (unary 3, unary 4, 1);
    (unary 2, unary 3, 1);
    (unary 8, unary 9, 2);
    (unary 5, unary 5, 3);
    ("abab", "abab", 3);
    ("abab", "baba", 2);
    ("abba", "abab", 2);
    (unary 4 ^ "bbb", unary 3 ^ "bbb", 1);
    (unary 4 ^ "bbb", unary 3 ^ "bbb", 2);
    ("aaaabbb", "aaabbb", 2);
    ("ab", "aabb", 1);
    ("ab", "aabb", 2);
    ("abc", "cba", 2);
    ("aab", "abb", 3);
  ]

let test_general_identity () =
  Test_oracle.check_all_paths ~cache:(Cache.create ()) instances

let test_general_identity_budget () =
  (* a starved search may only answer Unknown, never a wrong verdict,
     and enough budget must decide *)
  List.iter
    (fun (w, v, k) ->
      let expect = of_bool (oracle w v k) in
      List.iter
        (fun b ->
          let cache = Cache.create () in
          List.iter
            (fun got ->
              if got <> Game.Unknown then
                Alcotest.check verdict
                  (Printf.sprintf "%S vs %S @%d budget %d" w v k b)
                  expect got)
            [
              Game.decide ~budget:b (Game.make w v) k;
              Game.decide ~budget:b ~cache (Game.make w v) k;
            ])
        [ 1; 10; 100; 1000 ];
      Alcotest.check verdict "funded" expect (Game.decide (Game.make w v) k))
    [ (unary 6, unary 7, 3); (unary 6 ^ "b", unary 7 ^ "b", 2) ]

let test_unary_identity () =
  for p = 1 to 9 do
    for q = p to 9 do
      for k = 0 to 3 do
        let r, _, _ = Packed.solve_unary ~p ~q ~init:[] k in
        Alcotest.check verdict
          (Printf.sprintf "a^%d vs a^%d @%d" p q k)
          (of_bool (oracle (unary p) (unary q) k))
          (of_result r)
      done
    done
  done

let test_unary_identity_init_limit () =
  let inits = [ []; [ (2, 2) ]; [ (3, 2); (2, 3) ]; [ (5, 9) ]; [ (0, 0) ] ] in
  List.iter
    (fun init ->
      let pairs = List.map (fun (l, r) -> (unary l, unary r)) init in
      let expect = oracle ~pairs (unary 7) (unary 9) 2 in
      List.iter
        (fun limit ->
          let r, _, _ = Packed.solve_unary ~limit ~p:7 ~q:9 ~init 2 in
          let label =
            Printf.sprintf "init=%d limit=%d" (List.length init) limit
          in
          if limit = max_int then
            Alcotest.check verdict label (of_bool expect) (of_result r)
          else if r = Some true then
            Alcotest.(check bool) (label ^ " win is genuine") true expect)
        [ 1; 2; 4; max_int ])
    inits

let test_unary_played_positions () =
  (* every position of at most two played pairs at k = 0 and 1, and of
     at most one at k = 2, on a^p vs a^q for p, q <= 6 — in both orders,
     partial isomorphisms or not: the search must give the oracle's
     verdict from each (at k = 0, whether the position is a partial
     isomorphism at all). For p, q <= 5, k = 2 from every position of
     two played pairs too: those searches decide 1-round leaves at arena
     length 5 from their parent's pattern map. *)
  for p = 1 to 6 do
    for q = 1 to 6 do
      let entries =
        List.concat_map
          (fun l -> List.init (q + 1) (fun r -> (l, r)))
          (List.init (p + 1) Fun.id)
      in
      let check k init =
        let r, _, _ = Packed.solve_unary ~p ~q ~init k in
        let pairs = List.map (fun (l, r) -> (unary l, unary r)) init in
        Alcotest.check verdict
          (Printf.sprintf "a^%d vs a^%d @%d from [%s]" p q k
             (String.concat ";"
                (List.map (fun (l, r) -> Printf.sprintf "%d,%d" l r) init)))
          (of_bool (Oracle.equiv ~pairs (unary p) (unary q) k))
          (of_result r)
      in
      check 1 [];
      check 2 [];
      List.iter
        (fun e ->
          check 0 [ e ];
          check 2 [ e ];
          List.iter
            (fun e' ->
              check 0 [ e; e' ];
              check 1 [ e; e' ];
              if p <= 5 && q <= 5 then check 2 [ e; e' ])
            entries)
        entries
    done
  done

let test_unary_node_identity () =
  (* nodes and memo entries of every k = 3 solve on a^p vs a^q, p <= q <=
     32, summed. Verdicts alone cannot see a kernel that decides some
     1-round leaves wrongly but is rescued by other replies; the
     explored tree can. Cost-only changes keep these totals; a change
     that alters which nodes the search visits fails here. *)
  let nodes = ref 0 and entries = ref 0 in
  for q = 1 to 32 do
    for p = 1 to q do
      let _, n, m = Packed.solve_unary ~p ~q ~init:[] 3 in
      nodes := !nodes + n;
      entries := !entries + m
    done
  done;
  Alcotest.(check (pair int int)) "nodes, memo entries" (42784, 9976)
    (!nodes, !entries)

let test_reply_order () =
  (* the counting sort against its specification: every reply of
     [0..other_max], sorted by (score, b) — identical reply first, then
     the distance to the nearest of the move, the mirror and the two
     half-shift centres; the grid covers both sides of every pair *)
  let spec ~mine_max ~other_max a =
    let g = other_max - mine_max in
    let centres = [ a; a + g; a + (g / 2); a + g - (g / 2) ] in
    let score b =
      if b = a then -1
      else List.fold_left (fun m c -> min m (abs (b - c))) max_int centres
    in
    List.init (other_max + 1) (fun b -> (score b, b))
    |> List.sort compare |> List.map snd
  in
  for mine_max = 1 to 40 do
    for other_max = 1 to 40 do
      for a = 0 to mine_max do
        let got = Packed.reply_order ~mine_max ~other_max a in
        if Array.to_list got <> spec ~mine_max ~other_max a then
          Alcotest.failf "reply order for %d of %d vs %d" a mine_max other_max
      done
    done
  done

let test_unary_cache_traffic () =
  (* one table shared across a grid of solves at each store depth: the
     table only ever holds exact verdicts, so cold and warm answers both
     equal the oracle's *)
  List.iter
    (fun store_depth ->
      let cache = Cache.create () in
      for pass = 1 to 2 do
        for q = 2 to 8 do
          for p = 1 to q - 1 do
            for k = 1 to 3 do
              let r, _, _ =
                Packed.solve_unary ~cache ~store_depth ~p ~q ~init:[] k
              in
              Alcotest.check verdict
                (Printf.sprintf "depth %d pass %d a^%d vs a^%d @%d"
                   store_depth pass p q k)
                (of_bool (oracle (unary p) (unary q) k))
                (of_result r)
            done
          done
        done
      done;
      Alcotest.(check bool)
        (Printf.sprintf "table filled (depth %d)" store_depth)
        true
        ((Cache.stats cache).Cache.entries > 0))
    [ 0; 1; max_int ]

let test_scan_identity () =
  (* frontier scans under the plain and the table engine both find the
     oracle's minimal pair *)
  List.iter
    (fun (k, max_n) ->
      let expect =
        let rec go q p =
          if q > max_n then Witness.Exhausted max_n
          else if p >= q then go (q + 1) 0
          else if oracle (unary p) (unary q) k then Witness.Found (p, q)
          else go q (p + 1)
        in
        go 1 0
      in
      List.iter
        (fun (name, engine) ->
          let o, _ = Witness.scan ~engine ~k ~max_n () in
          Alcotest.(check bool)
            (Printf.sprintf "scan %s @k=%d" name k)
            true (o = expect))
        [ ("seed", Witness.Seed); ("cached", Witness.Cached (Cache.create ())) ])
    [ (1, 14); (2, 14) ]

(* ------------------------------------------------------------------ *)
(* Randomized differential *)

let gen_word n =
  QCheck.Gen.(
    map
      (fun l -> String.init (List.length l) (List.nth l))
      (list_size (int_bound n) (oneofl [ 'a'; 'b' ])))

let arb_pair_k =
  QCheck.make
    ~print:(fun (w, v, k) -> Printf.sprintf "(%S, %S, %d)" w v k)
    QCheck.Gen.(
      map3 (fun w v k -> (w, v, k)) (gen_word 6) (gen_word 6) (int_range 0 2))

let qcheck_general_identity =
  let cache = Cache.create () in
  QCheck.Test.make ~count:120 ~name:"packed = oracle (random general)"
    arb_pair_k (fun (w, v, k) ->
      let expect = of_bool (Oracle.equiv w v k) in
      Game.equiv w v k = expect && Game.equiv ~cache w v k = expect)

let arb_unary =
  QCheck.make
    ~print:(fun (p, q, k, init) ->
      Printf.sprintf "(p=%d, q=%d, k=%d, init=[%s])" p q k
        (String.concat ";"
           (List.map (fun (l, r) -> Printf.sprintf "%d,%d" l r) init)))
    QCheck.Gen.(
      let pair = map2 (fun l r -> (l, r)) (int_bound 13) (int_bound 13) in
      map3
        (fun p q (k, init) -> (p, q, k, init))
        (int_range 1 12) (int_range 1 12)
        (map2 (fun k init -> (k, init)) (int_range 0 3)
           (list_size (int_bound 2) pair)))

let qcheck_unary_identity =
  QCheck.Test.make ~count:300 ~name:"packed = oracle (random unary)" arb_unary
    (fun (p, q, k, init) ->
      let r, _, _ = Packed.solve_unary ~p ~q ~init k in
      (* an entry outside its word is no position: the solver refutes it *)
      if List.exists (fun (l, r) -> l > p || r > q) init then r = Some false
      else
        let pairs = List.map (fun (l, r) -> (unary l, unary r)) init in
        r = Some (Oracle.equiv ~pairs (unary p) (unary q) k))

(* ------------------------------------------------------------------ *)
(* Arena discipline *)

let test_arena_basics () =
  let a = Arena.create ~capacity:2 () in
  Alcotest.(check int) "empty" 0 (Arena.len a);
  Arena.push a 1 2;
  Arena.push a 3 4;
  Arena.push a 5 6;
  (* grows past initial capacity *)
  Alcotest.(check int) "len" 3 (Arena.len a);
  Alcotest.(check (pair int int)) "entry 1" (3, 4) (Arena.fst_at a 1, Arena.snd_at a 1);
  Alcotest.(check (list (pair int int)))
    "to_list" [ (1, 2); (3, 4); (5, 6) ] (Arena.to_list a);
  Alcotest.(check (list (pair int int)))
    "to_list from" [ (3, 4); (5, 6) ] (Arena.to_list ~from:1 a);
  Arena.pop a;
  Alcotest.(check int) "pop" 2 (Arena.len a);
  let m = Arena.mark a in
  Arena.push a 7 8;
  Arena.push a 9 10;
  Arena.release a m;
  Alcotest.(check int) "release" 2 (Arena.len a)

let test_arena_stale_mark () =
  let a = Arena.create () in
  Arena.push a 1 1;
  Arena.push a 2 2;
  let m = Arena.mark a in
  let g = Arena.generation a in
  Arena.reset a;
  Alcotest.(check int) "generation bumped" (g + 1) (Arena.generation a);
  Alcotest.(check int) "reset empties" 0 (Arena.len a);
  (* a mark taken before the reset exceeds the emptied stack: refusing it
     is what makes cross-solve aliasing impossible *)
  Alcotest.check_raises "stale mark refused"
    (Invalid_argument "Arena.release: bad mark") (fun () -> Arena.release a m)

let test_arena_reuse_no_aliasing () =
  (* interleave distinct solves on the shared per-domain arena: each
     must reproduce its fresh-arena answer exactly (result AND node
     count), and each solve must start a new arena generation *)
  let solve_a () = Packed.solve_unary ~p:5 ~q:7 ~init:[] 3 in
  let solve_b () = Packed.solve_unary ~p:9 ~q:11 ~init:[ (4, 4) ] 3 in
  let solve_c () = Packed.solve_unary ~p:2 ~q:3 ~init:[] 2 in
  let fresh_a = solve_a () and fresh_b = solve_b () and fresh_c = solve_c () in
  let g0 = Arena.generation (Packed.scratch_arena ()) in
  Alcotest.(check bool) "a replays" true (solve_a () = fresh_a);
  Alcotest.(check bool) "b replays" true (solve_b () = fresh_b);
  Alcotest.(check bool) "a replays after b" true (solve_a () = fresh_a);
  Alcotest.(check bool) "c replays" true (solve_c () = fresh_c);
  Alcotest.(check bool) "b replays after c" true (solve_b () = fresh_b);
  let g1 = Arena.generation (Packed.scratch_arena ()) in
  Alcotest.(check int) "one generation per solve" (g0 + 5) g1

let test_arena_isolated_across_engines () =
  (* general and existential solves between two unary solves must not
     perturb the unary replay, nor one solver handle's solves another's *)
  let before = Packed.solve_unary ~p:6 ~q:8 ~init:[] 3 in
  let s = Game.solver (Game.make "abab" "baba") in
  let first = Game.solver_wins s [ ("ab", "ba") ] 1 in
  let _ = Game.decide (Game.make "ab" "ba") 2 in
  let _ = Existential.equiv "aab" "abb" 2 in
  Alcotest.(check bool)
    "unary unperturbed" true
    (Packed.solve_unary ~p:6 ~q:8 ~init:[] 3 = before);
  Alcotest.check verdict "handle unperturbed" first
    (Game.solver_wins s [ ("ab", "ba") ] 1)

let tests =
  ( "packed_engine",
    [
      Alcotest.test_case "general identity (corpus)" `Quick
        test_general_identity;
      Alcotest.test_case "general identity under budgets" `Quick
        test_general_identity_budget;
      Alcotest.test_case "unary identity (grid)" `Quick test_unary_identity;
      Alcotest.test_case "unary identity (init, limit)" `Quick
        test_unary_identity_init_limit;
      Alcotest.test_case "unary identity (played positions)" `Quick
        test_unary_played_positions;
      Alcotest.test_case "unary node identity" `Quick
        test_unary_node_identity;
      Alcotest.test_case "unary reply order" `Quick test_reply_order;
      Alcotest.test_case "unary cache traffic identity" `Quick
        test_unary_cache_traffic;
      Alcotest.test_case "scan identity" `Slow test_scan_identity;
      QCheck_alcotest.to_alcotest qcheck_general_identity;
      QCheck_alcotest.to_alcotest qcheck_unary_identity;
      Alcotest.test_case "arena basics" `Quick test_arena_basics;
      Alcotest.test_case "arena stale mark refused" `Quick
        test_arena_stale_mark;
      Alcotest.test_case "arena reuse, no stale aliasing" `Quick
        test_arena_reuse_no_aliasing;
      Alcotest.test_case "arena isolated across engines" `Quick
        test_arena_isolated_across_engines;
    ] )
