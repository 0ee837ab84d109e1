(* Known answers, pinned from a run of the library this benchmark was
   written against. A mismatch is a failed item, never a skipped one.
   [--corrupt-pinned] (self-test only) perturbs each pinned value so
   the failure path itself stays tested. *)

let corrupt = ref false
let pin s = if !corrupt then s ^ "-corrupted" else s

(* ≡₃ unary frontier at N = 64: the MD5 of the sorted transposition
   table (key, win frontier, lose frontier), as [Cache.fold] exposes it.
   The merged fleet table must carry exactly the same entries. *)
let frontier_64 () = pin "9dfa1614bfa34b6d443381e9661bb8e4"

(* MD5 of the same frontier's pair-level verdicts ([Witness.table_verdict]
   at k = 3, one letter per pair in scan order): 1891 Not_equiv, no
   Equiv, and 189 pairs with p ≤ 2 that the table does not record. *)
let frontier_64_pairs () = pin "9ae92e79ecb855da8aad2c4afdcbeba5"

(* Verdict vector of the word-games anchor slice ([Gen.anchor_seed]),
   one letter per pair: E(quiv), N(ot_equiv), U(nknown). *)
let word_anchor () = pin "NNNNNNNNNNNNNNNNEEEENNNN"

(* Row counts of the spanner anchor corpus, one per document. *)
let spanner_anchor () = pin "1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,2,0,1,1,2,0,1,0,2,0,2,0,2,0,1,1,2,0,4,3"

let table_digest cache =
  Efgame.Cache.fold cache ~init:[] ~f:(fun acc key ~win ~lose -> (key, win, lose) :: acc)
  |> List.sort compare
  |> List.map (fun (key, win, lose) -> Printf.sprintf "%S %d %d" key win lose)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* [check notes what ~expected ~actual] is true on a match and records
   a note line on a mismatch. *)
let check notes what ~expected ~actual =
  if expected = actual then true
  else begin
    notes := Printf.sprintf "MISMATCH %s: got %s, expected %s" what actual expected :: !notes;
    false
  end
