(** Existential Ehrenfeucht-Fraïssé games — the restriction the paper's
    conclusion proposes for core-spanner inexpressibility.

    Spoiler may only choose elements of the {e left} structure; Duplicator
    answers in the right one, and wins when the chosen pairs (plus
    constants) form a {e partial homomorphism}: equalities and
    concatenation facts of the left side are preserved (but need not be
    reflected). Duplicator winning the k-round game, written [w ⇛_k v],
    characterizes preservation of existential-positive FC sentences of
    quantifier rank ≤ k from 𝔄_w to 𝔅_v. *)

val preserves : Partial_iso.entry list -> bool
(** One-directional condition: aᵢ = aⱼ ⇒ bᵢ = bⱼ, aᵢ = c^𝔄 ⇒ bᵢ = c^𝔅,
    and aᵢ = aⱼ·aₖ ⇒ bᵢ = bⱼ·bₖ. *)

val decide : ?budget:int -> Game.config -> int -> Game.verdict
(** Does Duplicator win the k-round existential game on the config's
    left vs right structure? The one-sided search runs in {!Packed}. *)

val equiv : ?sigma:char list -> ?budget:int -> string -> string -> int -> Game.verdict
(** [equiv w v k]: w ⇛_k v (note the asymmetry). *)

val positive_exists : Fc.Formula.t -> bool
(** Is the formula existential-positive — built from atoms, ∧, ∨ and ∃
    only? (The class the game preserves.) *)

val transfer_check :
  ?sigma:char list -> Fc.Formula.t -> string -> string -> bool option
(** [transfer_check φ w v]: for an existential-positive sentence φ, checks
    the preservation property 𝔄_w ⊨ φ ⇒ 𝔅_v ⊨ φ. [None] when φ is not
    existential-positive. Used to test the game soundness direction. *)
