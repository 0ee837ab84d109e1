(* Seeded input generators. Everything a workload feeds the library is
   built here from the --seed argument (or from the fixed anchor seed for
   the pinned slices), so the same seed always gives the same inputs and
   the library never sees the seed itself. *)

let rng ~seed ~salt = Random.State.make [| seed; salt; 0x5eed |]

(* The seed of the pinned slices: their answers are constants in
   {!Pinned}, checked on every run whatever --seed says. *)
let anchor_seed = 0

(* ------------------------------------------------------- word games *)

type pair = { left : string; right : string; k : int }

let shuffle st s =
  let b = Bytes.of_string s in
  for i = Bytes.length b - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let c = Bytes.get b i in
    Bytes.set b i (Bytes.get b j);
    Bytes.set b j c
  done;
  Bytes.to_string b

(* A binary word with at least two of each letter, and a different
   arrangement of the same letters: equal Parikh vectors, so the pair is
   not refuted by counting, and Spoiler usually still wins. *)
let same_parikh_pair st n =
  let rec word () =
    let w = String.init n (fun _ -> if Random.State.bool st then 'a' else 'b') in
    let count c = String.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 w in
    if count 'a' >= 2 && count 'b' >= 2 then w else word ()
  in
  let w = word () in
  let rec other () =
    let v = shuffle st w in
    if v <> w then v else other ()
  in
  (w, other ())

(* Duplicator-win family of the Primitive Power Lemma: u·a^p·v against
   u·a^q·v with a^p ≡₂ a^q (p, q ≥ 12 of equal parity). The exponents
   come from a fixed grid, and the seed puts the guard letter b either
   before or after the power; the two placements mirror each other, so
   a pair's cost does not depend on the seed, and the pair is never
   unary. *)
let power_grid = [| (12, 14); (13, 15) |]

let power_pair st i =
  let p, q = power_grid.(i mod Array.length power_grid) in
  let a n = String.make n 'a' in
  if Random.State.bool st then ("b" ^ a p, "b" ^ a q) else (a p ^ "b", a q ^ "b")

(* Word lengths are a fixed schedule, not drawn: a pair's cost grows
   steeply with length, and a drawn length would make the workload's
   cost depend on the seed. *)
let random_lengths = [| 8; 9; 10; 11 |]

let word_pairs ~seed ~random ~power ~deep =
  let st = rng ~seed ~salt:1 in
  let rnd =
    List.init random (fun i ->
        let l, r = same_parikh_pair st random_lengths.(i mod 4) in
        { left = l; right = r; k = 2 })
  in
  let pow =
    List.init power (fun i ->
        let l, r = power_pair st i in
        { left = l; right = r; k = 2 })
  in
  let dp =
    List.init deep (fun i ->
        let l, r = same_parikh_pair st (6 + (i mod 3)) in
        { left = l; right = r; k = 3 })
  in
  rnd @ pow @ dp

(* --------------------------------------------------- spanner corpus *)

(* Filler letters: exactly the letters of the two misspellings plus a
   space, so near-misses ("acheiv", "begin") are common. *)
let doc_sigma = [ 'a'; 'b'; 'c'; 'e'; 'g'; 'h'; 'i'; 'n'; 'v'; ' ' ]
let misspellings = [| "acheive"; "begining" |]

(* Fixed length schedule from 20 to 180 characters, dense at the short
   end: evaluation cost grows roughly as n^2.6, so the eight longer
   documents set most of the wall, and forty documents leave ten beyond
   the p75 tail. *)
let doc_lengths =
  List.init 32 (fun i -> 20 + i) @ [ 58; 66; 74; 82; 90; 100; 120; 180 ]

type doc = { text : string; query : [ `Extract | `Select_eq ] }

let document st n =
  let sigma = Array.of_list doc_sigma in
  let b = Bytes.init n (fun _ -> sigma.(Random.State.int st (Array.length sigma))) in
  (* one planted misspelling per started 40 characters *)
  let plants = 1 + (n / 40) in
  for _ = 1 to plants do
    let w = misspellings.(Random.State.int st 2) in
    let at = Random.State.int st (n - String.length w + 1) in
    Bytes.blit_string w 0 b at (String.length w)
  done;
  Bytes.to_string b

(* Documents alternate between the two queries, so both see the whole
   length range. *)
let corpus ~seed =
  let st = rng ~seed ~salt:2 in
  List.mapi
    (fun i n ->
      { text = document st n; query = (if i mod 2 = 0 then `Extract else `Select_eq) })
    doc_lengths
