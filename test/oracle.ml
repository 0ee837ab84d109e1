(* A brute-force reference for the EF game for FC, written straight from
   the definition of the structure 𝔄_w: universe Facs(w) ∪ {⊥}, one
   constant per letter of Σ (⊥ when the letter does not occur in w) plus
   ε, and the relation R∘ = {(x, y, z) | x = y·z} over factors. Atoms
   hold of factors only — ⊥ satisfies none, as in FC's semantics.

   It depends on the OCaml standard library alone, so it shares no code
   with the solver it checks: no memo, no move or reply ordering, no
   forced replies, no dominance pruning — every Spoiler move (⊥
   included) against every Duplicator reply, with the whole position
   re-checked at every node. *)

type structure = {
  elems : string option array; (* factors, then ⊥ as the last element *)
  index : (string option, int) Hashtbl.t;
  cat : bool array; (* R∘ as its characteristic array over m³ triples *)
  consts : int list; (* the letters of Σ in order, then ε *)
}

let size st = Array.length st.elems

let structure sigma w =
  let facs = Hashtbl.create 64 in
  let n = String.length w in
  for i = 0 to n do
    for l = 0 to n - i do
      Hashtbl.replace facs (String.sub w i l) ()
    done
  done;
  let factors = List.sort compare (Hashtbl.fold (fun f () acc -> f :: acc) facs []) in
  let elems = Array.of_list (List.map Option.some factors @ [ None ]) in
  let m = Array.length elems in
  let index = Hashtbl.create m in
  Array.iteri (fun i e -> Hashtbl.replace index e i) elems;
  let cat = Array.make (m * m * m) false in
  Array.iteri
    (fun y ey ->
      Array.iteri
        (fun z ez ->
          match (ey, ez) with
          | Some u, Some v -> (
              match Hashtbl.find_opt index (Some (u ^ v)) with
              | Some x -> cat.((((x * m) + y) * m) + z) <- true
              | None -> ())
          | _ -> ())
        elems)
    elems;
  let const c =
    Hashtbl.find index
      (if String.contains w c then Some (String.make 1 c) else None)
  in
  let eps = Hashtbl.find index (Some "") in
  { elems; index; cat; consts = List.map const sigma @ [ eps ] }

(* the atoms x = y and x = y·z *)
let eq st x y = x = y && st.elems.(x) <> None

let rel st x y z =
  let m = size st in
  st.cat.((((x * m) + y) * m) + z)

(* Does the position (a list of (left, right) element pairs, constants
   included) preserve every atom — both ways for a partial isomorphism,
   left to right only when [exist]? *)
let preserved ~exist a b pos =
  let e = Array.of_list pos in
  let n = Array.length e in
  let agree x y = if exist then (not x) || y else x = y in
  try
    for i = 0 to n - 1 do
      let ai, bi = e.(i) in
      for j = 0 to n - 1 do
        let aj, bj = e.(j) in
        if not (agree (eq a ai aj) (eq b bi bj)) then raise Exit;
        for l = 0 to n - 1 do
          let al, bl = e.(l) in
          if not (agree (rel a ai aj al) (rel b bi bj bl)) then raise Exit
        done
      done
    done;
    true
  with Exit -> false

let rec for_all_below n f = n = 0 || (f (n - 1) && for_all_below (n - 1) f)
let rec exists_below n f = n > 0 && (f (n - 1) || exists_below (n - 1) f)

(* Duplicator wins k more rounds from [pos]: for every Spoiler move on
   either side (on the left only when [exist]) some reply keeps the
   position preserved and wins the remaining rounds. *)
let rec duplicator_wins ~exist a b pos k =
  k = 0
  ||
  let from_left x = exists_below (size b) (fun y -> step ~exist a b ((x, y) :: pos) k) in
  let from_right y = exists_below (size a) (fun x -> step ~exist a b ((x, y) :: pos) k) in
  for_all_below (size a) from_left
  && (exist || for_all_below (size b) from_right)

and step ~exist a b pos k =
  preserved ~exist a b pos && duplicator_wins ~exist a b pos (k - 1)

let default_sigma w v =
  List.sort_uniq Char.compare (List.of_seq (String.to_seq (w ^ v)))

let game ~exist ?sigma ?(pairs = []) w v k =
  let sigma = match sigma with Some s -> s | None -> default_sigma w v in
  let a = structure sigma w and b = structure sigma v in
  let elem st x = Hashtbl.find st.index (Some x) in
  let pos =
    List.map (fun (x, y) -> (elem a x, elem b y)) pairs
    @ List.combine a.consts b.consts
  in
  preserved ~exist a b pos && duplicator_wins ~exist a b pos k

(* w ≡_k v, or — from a non-empty position — whether Duplicator wins k
   more rounds after the (left, right) [pairs] have been played. *)
let equiv ?sigma ?pairs w v k = game ~exist:false ?sigma ?pairs w v k

(* w ⇛_k v: the existential game, Spoiler on the left only. *)
let existential ?sigma w v k = game ~exist:true ?sigma w v k
