type side = Left | Right
type move = { side : side; element : string }
type verdict = Equiv | Not_equiv | Unknown
type mode = Full | Duplicator_limited of int

type config = {
  left : Fc.Structure.t;
  right : Fc.Structure.t;
  consts : Partial_iso.entry list;
  left_moves : string list; (* candidate Spoiler elements, longest first *)
  right_moves : string list;
  left_all : string list; (* full universes *)
  right_all : string list;
}

let by_desc_length a b =
  let c = compare (String.length b) (String.length a) in
  if c <> 0 then c else String.compare a b

let make ?sigma w v =
  let sigma =
    match sigma with
    | Some cs -> List.sort_uniq Char.compare cs
    | None -> List.sort_uniq Char.compare (Words.Word.alphabet w @ Words.Word.alphabet v)
  in
  let left = Fc.Structure.make ~sigma w and right = Fc.Structure.make ~sigma v in
  let consts = Partial_iso.constant_entries left right in
  let const_values side_proj =
    List.filter_map side_proj consts |> List.sort_uniq String.compare
  in
  let lconsts = const_values fst and rconsts = const_values snd in
  let movable universe skip =
    List.filter (fun f -> not (List.mem f skip)) universe |> List.sort by_desc_length
  in
  {
    left;
    right;
    consts;
    left_moves = movable (Fc.Structure.universe left) lconsts;
    right_moves = movable (Fc.Structure.universe right) rconsts;
    left_all = Fc.Structure.universe left;
    right_all = Fc.Structure.universe right;
  }

let left_word cfg = Fc.Structure.word cfg.left
let right_word cfg = Fc.Structure.word cfg.right
let base_partial_iso cfg = Partial_iso.holds cfg.consts
let structures cfg = (cfg.left, cfg.right)
let constant_entries cfg = cfg.consts

(* ------------------------------------------------------------------ *)
(* Duplicator candidates.                                              *)

(* Orient an entry so that [fst] is the Spoiler's side. *)
let orient side (x, y) = if side = Left then (x, y) else (y, x)
let unorient side (x, y) = if side = Left then (x, y) else (y, x)

let derived_candidates entries side a =
  (* Responses forced (or strongly suggested) by the concatenation pattern
     of the position: if a relates to already-played elements by R∘, the
     response must relate to their partners the same way. *)
  let oriented = List.map (orient side) entries in
  let known = List.filter_map (fun (x, y) -> match (x, y) with Some x, Some y -> Some (x, y) | _ -> None) oriented in
  let out = ref [] in
  let add r = if not (List.mem r !out) then out := r :: !out in
  List.iter
    (fun (xi, yi) ->
      List.iter
        (fun (xj, yj) ->
          (* a = xi · xj  ⇒  respond yi · yj *)
          if xi ^ xj = a then add (yi ^ yj);
          (* xi = a · xj  ⇒  respond yi with suffix yj removed *)
          if
            String.length xi = String.length a + String.length xj
            && xi = a ^ xj
            && Words.Word.is_suffix ~suffix:yj yi
          then add (String.sub yi 0 (String.length yi - String.length yj));
          (* xi = xj · a  ⇒  respond yi with prefix yj removed *)
          if
            String.length xi = String.length xj + String.length a
            && xi = xj ^ a
            && Words.Word.is_prefix ~prefix:yj yi
          then add (String.sub yi (String.length yj) (String.length yi - String.length yj)))
        known)
    known;
  List.rev !out

let score ~from_word ~to_word a r =
  if r = a then (-1, 0, 0)
  else
    let lf = String.length from_word and lt = String.length to_word in
    let la = String.length a and lr = String.length r in
    let status_penalty =
      (if Words.Word.is_prefix ~prefix:a from_word = Words.Word.is_prefix ~prefix:r to_word then 0
       else 1)
      + if Words.Word.is_suffix ~suffix:a from_word = Words.Word.is_suffix ~suffix:r to_word then 0
        else 1
    in
    let mirror = abs (lt - lr - (lf - la)) and direct = abs (lr - la) in
    (0, status_penalty, min mirror direct)

let response_candidates cfg entries side a =
  let from_word, to_word, universe =
    match side with
    | Left -> (left_word cfg, right_word cfg, cfg.right_all)
    | Right -> (right_word cfg, left_word cfg, cfg.left_all)
  in
  let to_struct = match side with Left -> cfg.right | Right -> cfg.left in
  let derived =
    derived_candidates entries side a |> List.filter (Fc.Structure.mem to_struct)
  in
  let rest =
    List.filter (fun r -> not (List.mem r derived)) universe
    |> List.map (fun r -> (score ~from_word ~to_word a r, r))
    |> List.sort compare |> List.map snd
  in
  derived @ rest

(* ------------------------------------------------------------------ *)
(* Solver: a handle on {!Packed}'s general search.                      *)

type stats = {
  nodes : int;
  memo_entries : int;
  cache_hits : int;
  cache_misses : int;
}

(* Both words powers of the same single letter (and nonempty, so the
   letter constant is defined on both sides): eligible for the arithmetic
   search ({!Packed.solve_unary}). *)
let unary_of cfg =
  let w = Fc.Structure.word cfg.left and v = Fc.Structure.word cfg.right in
  if w = "" || v = "" then None
  else
    let c = w.[0] in
    if String.for_all (Char.equal c) w && String.for_all (Char.equal c) v then
      Some (c, String.length w, String.length v)
    else None

type solver = {
  cfg : config;
  mode : mode;
  budget : int;
  cache : Cache.t option;
  search : (Packed.gstate * Packed.memo) Lazy.t;
      (* built on first use: handles that only hit the shared table or
         the unary search never need the factor indexes *)
  mutable nodes : int;
}

let solver ?(mode = Full) ?(budget = 50_000_000) ?cache cfg =
  {
    cfg;
    mode;
    budget;
    cache;
    search =
      lazy
        (let g = Packed.make_gstate cfg.left cfg.right cfg.consts in
         (g, Packed.memo g));
    nodes = 0;
  }

let width_of_mode = function Full -> max_int | Duplicator_limited n -> n

let cache_counters = function
  | None -> (0, 0)
  | Some c ->
      let st = Cache.stats c in
      (st.Cache.hits, st.Cache.misses)

let memo_size s =
  if Lazy.is_val s.search then Packed.memo_size (snd (Lazy.force s.search))
  else 0

let solver_run s pairs0 k0 =
  let cfg = s.cfg in
  let limit = width_of_mode s.mode in
  let hits0, misses0 = cache_counters s.cache in
  let memo_entries = ref None in
  (* the handle's budget is shared by all its solves *)
  let budget = s.budget - s.nodes in
  let general ?cache () =
    let g, memo = Lazy.force s.search in
    let r, n =
      Packed.solve_general g ~memo ?cache ~limit ~nodes0:s.nodes
        ~budget:s.budget ~init:pairs0 k0
    in
    s.nodes <- n;
    r
  in
  let entries0 =
    List.fold_left (fun acc (a, b) -> (Some a, Some b) :: acc) cfg.consts pairs0
  in
  let result =
    if not (Partial_iso.holds entries0) then Some false
    else
      match s.cache with
      | None -> general ()
      | Some cache -> (
          let unary = unary_of cfg in
          let lengths =
            List.map (fun (a, b) -> (String.length a, String.length b)) pairs0
          in
          let key =
            match unary with
            | Some (_, p, q) -> Position.unary_key ~p ~q lengths
            | None ->
                Position.key ~sigma:(Fc.Structure.sigma cfg.left)
                  ~left:(left_word cfg) ~right:(right_word cfg) pairs0
          in
          (* an exact verdict outranks any recorded budget exhaustion (a
             later, better-funded search may have solved the position
             after an earlier one starved) *)
          match Cache.lookup cache key ~k:k0 with
          | Some _ as r -> r
          | None
            when Cache.unknown_reusable cache key ~k:k0 ~width:limit ~budget
            ->
              (* a weaker-or-equal search already exhausted at least this
                 budget here: rerunning cannot do better *)
              None
          | None ->
              let r =
                match unary with
                | Some (_, p, q) ->
                    let r, n, m =
                      Packed.solve_unary ~cache ~limit ~budget ~p ~q
                        ~init:lengths k0
                    in
                    s.nodes <- s.nodes + n;
                    memo_entries := Some m;
                    r
                | None -> general ~cache ()
              in
              if r = None then
                Cache.store_unknown cache key ~k:k0 ~width:limit ~budget;
              r)
  in
  let hits1, misses1 = cache_counters s.cache in
  ( result,
    {
      nodes = s.nodes;
      memo_entries = Option.value !memo_entries ~default:(memo_size s);
      cache_hits = hits1 - hits0;
      cache_misses = misses1 - misses0;
    } )

let to_verdict mode result =
  match (result, mode) with
  | Some true, _ -> Equiv
  | Some false, Full -> Not_equiv
  | Some false, Duplicator_limited _ -> Unknown
  | None, _ -> Unknown

let solver_wins s pairs k = to_verdict s.mode (fst (solver_run s pairs k))

let solver_stats s =
  let hits, misses = cache_counters s.cache in
  {
    nodes = s.nodes;
    memo_entries = memo_size s;
    cache_hits = hits;
    cache_misses = misses;
  }

let spoiler_moves cfg = function
  | Left -> cfg.left_moves
  | Right -> cfg.right_moves

let decide_with_stats ?mode ?budget ?cache cfg k =
  let s = solver ?mode ?budget ?cache cfg in
  let result, stats = solver_run s [] k in
  (to_verdict s.mode result, stats)

let decide ?mode ?budget ?cache cfg k =
  fst (decide_with_stats ?mode ?budget ?cache cfg k)

let equiv ?sigma ?mode ?budget ?cache w v k =
  decide ?mode ?budget ?cache (make ?sigma w v) k

(* ------------------------------------------------------------------ *)
(* Principal variation extraction.                                     *)

exception No_line

(* Read off a solver handle: Spoiler's first move (Left side first, in
   move order) that no candidate reply survives, and the first
   candidate reply that at least preserves the partial isomorphism. *)
let winning_line ?budget cfg k0 =
  if not (base_partial_iso cfg) then Some []
  else
    let s = solver ?budget cfg in
    let duplicator_wins pairs k =
      match solver_wins s pairs k with
      | Equiv -> true
      | Not_equiv -> false
      | Unknown -> raise No_line
    in
    let entry side a r = unorient side (Some a, Some r) in
    let pair side a r = unorient side (a, r) in
    let breaks pairs entries k side a =
      let played (x, y) = match side with Left -> x | Right -> y in
      (not (List.exists (fun p -> played p = a) pairs))
      && not
           (List.exists
              (fun r ->
                Partial_iso.extension_ok entries (entry side a r)
                && duplicator_wins (pair side a r :: pairs) (k - 1))
              (response_candidates cfg entries side a))
    in
    let find_breaking_move pairs entries k =
      let try_side side =
        List.find_opt (breaks pairs entries k side) (spoiler_moves cfg side)
        |> Option.map (fun a -> { side; element = a })
      in
      match try_side Left with Some m -> Some m | None -> try_side Right
    in
    let rec build pairs entries k acc =
      if k = 0 then List.rev acc
      else
        match find_breaking_move pairs entries k with
        | None -> List.rev acc
        | Some m -> (
            let side = m.side and a = m.element in
            (* continue the line with the first Duplicator response that
               at least preserves the partial isomorphism, if any *)
            match
              List.find_opt
                (fun r -> Partial_iso.extension_ok entries (entry side a r))
                (response_candidates cfg entries side a)
            with
            | None -> List.rev ((m, None) :: acc)
            | Some r ->
                build (pair side a r :: pairs) (entry side a r :: entries)
                  (k - 1) ((m, Some r) :: acc))
    in
    try if duplicator_wins [] k0 then None else Some (build [] cfg.consts k0 [])
    with No_line -> None

let pp_move ppf m =
  Format.fprintf ppf "%s:%a"
    (match m.side with Left -> "L" | Right -> "R")
    Words.Word.pp m.element

let pp_verdict ppf = function
  | Equiv -> Format.pp_print_string ppf "≡"
  | Not_equiv -> Format.pp_print_string ppf "≢"
  | Unknown -> Format.pp_print_string ppf "?"
