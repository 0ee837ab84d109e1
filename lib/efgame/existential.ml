let concat3 x y z =
  match (x, y, z) with Some a, Some b, Some c -> a = b ^ c | _ -> false

let pair_preserved (a1, b1) (a2, b2) =
  (* left equality must transfer; ⊥ on the left imposes nothing *)
  match (a1, a2) with Some x, Some y when x = y -> b1 = b2 | _ -> true

let triple_preserved (a1, b1) (a2, b2) (a3, b3) =
  if concat3 a1 a2 a3 then concat3 b1 b2 b3 else true

let preserves entries =
  let arr = Array.of_list entries in
  let n = Array.length arr in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if !ok && not (pair_preserved arr.(i) arr.(j)) then ok := false;
      for k = 0 to n - 1 do
        if !ok && not (triple_preserved arr.(i) arr.(j) arr.(k)) then ok := false
      done
    done
  done;
  !ok

let decide ?(budget = 50_000_000) cfg k0 =
  let consts = Game.constant_entries cfg in
  if not (preserves consts) then Game.Not_equiv
  else
    let left, right = Game.structures cfg in
    match Packed.solve_existential (Packed.make_gstate left right consts) ~budget k0 with
    | Some true -> Game.Equiv
    | Some false -> Game.Not_equiv
    | None -> Game.Unknown

let equiv ?sigma ?budget w v k = decide ?budget (Game.make ?sigma w v) k

let rec positive_exists (f : Fc.Formula.t) =
  match f with
  | True | False | Eq _ | Mem _ -> true
  | And (a, b) | Or (a, b) -> positive_exists a && positive_exists b
  | Exists (_, g) -> positive_exists g
  | Not _ | Forall _ -> false

let transfer_check ?sigma f w v =
  if not (positive_exists f && Fc.Formula.is_sentence f) then None
  else
    let sigma =
      match sigma with
      | Some cs -> cs
      | None ->
          List.sort_uniq Char.compare
            (Fc.Formula.constants f @ Words.Word.alphabet w @ Words.Word.alphabet v)
    in
    let holds u = Fc.Eval.holds (Fc.Structure.make ~sigma u) f in
    Some ((not (holds w)) || holds v)
