type side = Left | Right
type move = { side : side; element : string }
type verdict = Equiv | Not_equiv | Unknown
type mode = Full | Duplicator_limited of int

type config = {
  left : Fc.Structure.t;
  right : Fc.Structure.t;
  consts : Partial_iso.entry list;
  g : Packed.gstate Lazy.t;
      (* built on first use: unary solves and shared-table hits never
         need the factor indexes *)
}

let make ?sigma w v =
  let sigma =
    match sigma with
    | Some cs -> List.sort_uniq Char.compare cs
    | None -> List.sort_uniq Char.compare (Words.Word.alphabet w @ Words.Word.alphabet v)
  in
  let left = Fc.Structure.make ~sigma w and right = Fc.Structure.make ~sigma v in
  let consts = Partial_iso.constant_entries left right in
  { left; right; consts; g = lazy (Packed.make_gstate left right consts) }

let left_word cfg = Fc.Structure.word cfg.left
let right_word cfg = Fc.Structure.word cfg.right
let base_partial_iso cfg = Partial_iso.holds cfg.consts
let structures cfg = (cfg.left, cfg.right)
let constant_entries cfg = cfg.consts

let spoiler_moves cfg side =
  Packed.spoiler_moves (Lazy.force cfg.g) ~swap:(side = Right)

(* Spoiler's move [a] on [side] and Duplicator's reply [r], as a
   (left, right) pair and as a position entry. *)
let pair side a r = match side with Left -> (a, r) | Right -> (r, a)
let entry side a r = pair side (Some a) (Some r)

let replies cfg entries side a =
  Packed.reply_candidates (Lazy.force cfg.g) ~swap:(side = Right) a
  |> List.to_seq
  |> Seq.filter (fun r -> Partial_iso.extension_ok entries (entry side a r))

(* ------------------------------------------------------------------ *)
(* Solver: a handle on {!Packed}'s searches.                              *)

type stats = {
  nodes : int;
  memo_entries : int;
  cache_hits : int;
  cache_misses : int;
}

(* Both words powers of the same single letter (and nonempty, so the
   letter constant is defined on both sides): [Some (p, q)], an instance
   of the arithmetic search ({!Packed.solve_unary}). *)
let unary_of cfg =
  let w = left_word cfg and v = right_word cfg in
  if w = "" || v = "" then None
  else
    let c = w.[0] in
    if String.for_all (Char.equal c) w && String.for_all (Char.equal c) v then
      Some (String.length w, String.length v)
    else None

type solver = {
  cfg : config;
  mode : mode;
  budget : int;
  cache : Cache.t option;
  memo : Packed.memo Lazy.t; (* the general search's, kept across solves *)
  mutable nodes : int;
}

let solver ?(mode = Full) ?(budget = 50_000_000) ?cache cfg =
  {
    cfg;
    mode;
    budget;
    cache;
    memo = lazy (Packed.memo (Lazy.force cfg.g));
    nodes = 0;
  }

let width_of_mode = function Full -> max_int | Duplicator_limited n -> n

let cache_counters = function
  | None -> (0, 0)
  | Some c ->
      let st = Cache.stats c in
      (st.Cache.hits, st.Cache.misses)

let memo_size s =
  if Lazy.is_val s.memo then Packed.memo_size (Lazy.force s.memo) else 0

let solver_run s pairs0 k0 =
  let cfg = s.cfg and cache = s.cache in
  let limit = width_of_mode s.mode in
  let hits0, misses0 = cache_counters cache in
  let memo_entries = ref None in
  (* the handle's budget is shared by all its solves *)
  let budget = s.budget - s.nodes in
  let unary = unary_of cfg in
  let lengths =
    List.map (fun (a, b) -> (String.length a, String.length b)) pairs0
  in
  let search () =
    match unary with
    | Some (p, q) ->
        let r, n, m =
          Packed.solve_unary ?cache ~limit ~budget ~p ~q ~init:lengths k0
        in
        s.nodes <- s.nodes + n;
        memo_entries := Some m;
        r
    | None ->
        let r, n =
          Packed.solve_general (Lazy.force cfg.g) ~memo:(Lazy.force s.memo)
            ?cache ~limit ~nodes0:s.nodes ~budget:s.budget ~init:pairs0 k0
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
      match cache with
      | None -> search ()
      | Some cache -> (
          let key =
            match unary with
            | Some (p, q) -> Position.unary_key ~p ~q lengths
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
              let r = search () in
              if r = None then
                Cache.store_unknown cache key ~k:k0 ~width:limit ~budget;
              r)
  in
  let hits1, misses1 = cache_counters cache in
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
   move order) that no reply survives, and the first reply that at least
   preserves the partial isomorphism. *)
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
    let breaks pairs entries k side a =
      let played (x, y) = match side with Left -> x | Right -> y in
      (not (List.exists (fun p -> played p = a) pairs))
      && not
           (Seq.exists
              (fun r -> duplicator_wins (pair side a r :: pairs) (k - 1))
              (replies cfg entries side a))
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
            match Seq.uncons (replies cfg entries side a) with
            | None -> List.rev ((m, None) :: acc)
            | Some (r, _) ->
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
