let identity : Strategy.t =
 fun cfg _history (move : Game.move) ->
  let sta, stb = Game.structures cfg in
  let target = match move.Game.side with Game.Left -> stb | Game.Right -> sta in
  if Fc.Structure.mem target move.Game.element then move.Game.element
  else raise (Strategy.Failure_to_respond "identity: element not shared")

let pairs_of_history history =
  List.map (fun ((m : Game.move), r) -> Game.pair m.Game.side m.Game.element r) history

let solver_backed cfg0 ~total_rounds : Strategy.t =
  let s = Game.solver cfg0 in
  fun _cfg history (move : Game.move) ->
    let entries = Strategy.entries_of_history cfg0 history in
    let pairs = pairs_of_history history in
    let remaining = max 0 (total_rounds - List.length history - 1) in
    let winning r =
      let pair = Game.pair move.Game.side move.Game.element r in
      Game.solver_wins s (pair :: pairs) remaining = Game.Equiv
    in
    match
      Seq.find winning
        (Game.replies cfg0 entries move.Game.side move.Game.element)
    with
    | Some r -> r
    | None ->
        raise
          (Strategy.Failure_to_respond
             "solver-backed: no winning response (position lost or budget exhausted)")

let solver_backed_maximin cfg0 ~cap : Strategy.t =
  let s = Game.solver cfg0 in
  fun _cfg history (move : Game.move) ->
    let entries = Strategy.entries_of_history cfg0 history in
    let pairs = pairs_of_history history in
    let depth r =
      let pair = Game.pair move.Game.side move.Game.element r in
      (* Winnability is antitone in the number of rounds, so scan up. *)
      let rec probe j =
        if j > cap then cap
        else if Game.solver_wins s (pair :: pairs) j = Game.Equiv then probe (j + 1)
        else j - 1
      in
      probe 1
    in
    let candidates =
      Game.replies cfg0 entries move.Game.side move.Game.element
    in
    (* Tie-break equal depths by mirror distance — the shape a winning
       high-round strategy must have near the word ends (Claim F.2). *)
    let from_word, to_word =
      match move.Game.side with
      | Game.Left -> (Game.left_word cfg0, Game.right_word cfg0)
      | Game.Right -> (Game.right_word cfg0, Game.left_word cfg0)
    in
    let mirror_penalty r =
      abs
        (String.length to_word - String.length r
        - (String.length from_word - String.length move.Game.element))
    in
    let better (d, pen) (d', pen') = d > d' || (d = d' && pen < pen') in
    let best =
      Seq.fold_left
        (fun acc r ->
          let key = (depth r, mirror_penalty r) in
          match acc with
          | Some (_, key') when not (better key key') -> acc
          | _ -> Some (r, key))
        None candidates
    in
    match best with
    | Some (r, _) -> r
    | None ->
        raise
          (Strategy.Failure_to_respond
             "solver-backed-maximin: no response preserves the partial isomorphism")

(* ------------------------------------------------------------------ *)

type lookup = { game : Game.config; strategy : Strategy.t }

let split_crossing ~left ~right u =
  let lw = String.length left in
  let crossing o = o < lw && o + String.length u > lw in
  if Words.Word.is_factor ~factor:u left || Words.Word.is_factor ~factor:u right then None
  else
    Words.Word.occurrences ~pattern:u (left ^ right)
    |> List.find_opt crossing
    |> Option.map (fun o -> Words.Word.split_at u (lw - o))

type routing = Both | Only1 | Only2 | Crossing of string * string

let pseudo_congruence g1 g2 : Strategy.t =
  let w1 = Game.left_word g1.game and v1 = Game.right_word g1.game in
  let w2 = Game.left_word g2.game and v2 = Game.right_word g2.game in
  let fw1 = Words.Factors.of_word w1 and fw2 = Words.Factors.of_word w2 in
  let fv1 = Words.Factors.of_word v1 and fv2 = Words.Factors.of_word v2 in
  let classify (side : Game.side) u =
    let f1, f2, x1, x2 =
      match side with
      | Game.Left -> (fw1, fw2, w1, w2)
      | Game.Right -> (fv1, fv2, v1, v2)
    in
    match (Words.Factors.mem f1 u, Words.Factors.mem f2 u) with
    | true, true -> Both
    | true, false -> Only1
    | false, true -> Only2
    | false, false -> (
        match split_crossing ~left:x1 ~right:x2 u with
        | Some (u1, u2) -> Crossing (u1, u2)
        | None ->
            raise
              (Strategy.Failure_to_respond
                 "pseudo-congruence: Spoiler's element is not a factor of the concatenation"))
  in
  (* Replay the main-game history into the two look-up histories. *)
  let advance (h1, h2) ((m : Game.move), _main_response) =
    let route e (g : lookup) h =
      let lm = { Game.side = m.Game.side; Game.element = e } in
      h @ [ (lm, g.strategy g.game h lm) ]
    in
    match classify m.Game.side m.Game.element with
    | Both -> (route m.Game.element g1 h1, route m.Game.element g2 h2)
    | Only1 -> (route m.Game.element g1 h1, h2)
    | Only2 -> (h1, route m.Game.element g2 h2)
    | Crossing (u1, u2) -> (route u1 g1 h1, route u2 g2 h2)
  in
  fun _cfg history (move : Game.move) ->
    let h1, h2 = List.fold_left advance ([], []) history in
    let respond e (g : lookup) h =
      let lm = { Game.side = move.Game.side; Game.element = e } in
      g.strategy g.game h lm
    in
    match classify move.Game.side move.Game.element with
    | Both ->
        let r1 = respond move.Game.element g1 h1 and r2 = respond move.Game.element g2 h2 in
        if r1 <> r2 then
          raise
            (Strategy.Failure_to_respond
               (Printf.sprintf
                  "pseudo-congruence: look-up games disagree on a common factor (%S vs %S)" r1 r2))
        else r1
    | Only1 -> respond move.Game.element g1 h1
    | Only2 -> respond move.Game.element g2 h2
    | Crossing (u1, u2) -> respond u1 g1 h1 ^ respond u2 g2 h2

(* ------------------------------------------------------------------ *)

let all_a s = String.for_all (fun c -> c = 'a') s

let primitive_power ~base g : Strategy.t =
  if not (Words.Primitive.is_primitive base) then
    invalid_arg "Strategies.primitive_power: base is not primitive";
  let lookup_move (m : Game.move) =
    let e = Words.Primitive.exp ~base m.Game.element in
    { Game.side = m.Game.side; Game.element = String.make e 'a' }
  in
  let advance h ((m : Game.move), _main_response) =
    let lm = lookup_move m in
    h @ [ (lm, g.strategy g.game h lm) ]
  in
  fun _cfg history (move : Game.move) ->
    let h = List.fold_left advance [] history in
    let e = Words.Primitive.exp ~base move.Game.element in
    if e = 0 then move.Game.element
    else
      let lm = lookup_move move in
      let reply = g.strategy g.game h lm in
      if not (all_a reply) then
        raise (Strategy.Failure_to_respond "primitive-power: non-unary look-up reply");
      let m = String.length reply in
      match Words.Primitive.factorize_in_power ~base move.Game.element with
      | Some (u1, _, u2) -> u1 ^ Words.Word.repeat base m ^ u2
      | None ->
          raise
            (Strategy.Failure_to_respond
               "primitive-power: Spoiler's element is not a factor of a power of the base")

let unary_lookup ~p ~q ~rounds =
  let game = Game.make (String.make p 'a') (String.make q 'a') in
  { game; strategy = solver_backed game ~total_rounds:rounds }

let unary_lookup_maximin ~p ~q ~cap =
  let game = Game.make (String.make p 'a') (String.make q 'a') in
  { game; strategy = solver_backed_maximin game ~cap }

let unary_lookup_threshold ~p ~q ~threshold ~cap =
  let game = Game.make (String.make p 'a') (String.make q 'a') in
  let maximin = solver_backed_maximin game ~cap in
  let strategy : Strategy.t =
   fun cfg history (move : Game.move) ->
    let n, m =
      match move.Game.side with Game.Left -> (p, q) | Game.Right -> (q, p)
    in
    let e = String.length move.Game.element in
    let mirrored = m - (n - e) in
    if e <= threshold then move.Game.element
    else if n - e <= threshold && mirrored >= 0 then String.make mirrored 'a'
    else maximin cfg history move
  in
  { game; strategy }
