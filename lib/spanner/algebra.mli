(** The (generalized) core spanner algebra (Section 1).

    Core spanners: regex formulas closed under union, projection, natural
    join and string-equality selection ζ^=. Generalized core spanners add
    difference. The extra [Select_rel] node is the ζ^R operator used to
    pose the paper's central question — which word relations R can be
    added without increasing expressive power ("selectability",
    Theorem 5.5). *)

type expr =
  | Extract of Regex_formula.t
  | Union of expr * expr
  | Project of string list * expr
  | Join of expr * expr
  | Diff of expr * expr
  | Select_eq of string * string * expr  (** ζ^=_{x,y} *)
  | Select_rel of Selectable.t * string list * expr  (** ζ^R_{x₁…xₖ} *)

val schema : expr -> string list
(** Static schema; raises [Invalid_argument] on ill-formed expressions
    (schema mismatches in ∪ / ∖, unknown variables in π / ζ, arity
    mismatches in ζ^R, non-functional regex formulas). *)

val well_formed : expr -> (string list, string) result

val is_core : expr -> bool
(** No difference and no ζ^R: a core spanner. *)

val is_generalized_core : expr -> bool
(** No ζ^R (difference allowed). *)

val eval : expr -> string -> Relation.t
(** Evaluate over a document. Each [Extract] is compiled to a
    {!Vset_automaton} and evaluated by its run search; the operators above
    it act on the extracted relations. Raises [Invalid_argument] on a
    non-functional regex formula. *)

val matches_anywhere : Regex_formula.t -> string -> Relation.t
(** Evaluates [Extract (Σ* · γ · Σ* )] over the document's own alphabet,
    i.e. finds every occurrence of γ as a factor, with γ's bindings. *)

val define_language : expr -> string -> bool
(** A Boolean spanner (empty schema) defines a language: w ∈ L iff the
    result is non-empty. *)

val selected_words : expr -> vars:string list -> string -> string list list
(** The word relation extracted on a document: factor contents of the
    listed variables. *)

val pp : Format.formatter -> expr -> unit
