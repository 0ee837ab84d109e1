(** Regex formulas: regular expressions with capture variables (the
    extractors of the document-spanner framework, Section 1).

    A regex formula is {e functional} when every way of matching the whole
    document binds every variable exactly once (Fagin et al.); only
    functional formulas are evaluated (by {!Algebra.eval}, on a compiled
    {!Vset_automaton}). The introduction's example is
    [Σ* · x{acheive ∨ beginning ∨ …} · Σ*]. *)

type t =
  | Empty
  | Eps
  | Char of char
  | Alt of t * t
  | Cat of t * t
  | Star of t
  | Bind of string * t  (** x{…} *)

val vars : t -> string list
(** Variables bound anywhere in the formula, sorted. *)

val is_functional : t -> bool
(** Syntactic functionality: both branches of every ∨ bind the same
    variables, concatenations bind disjoint sets, starred subformulas and
    rebindings bind none. *)

val of_regex : Regex_engine.Regex.t -> t
(** Variable-free embedding. *)

val to_regex : t -> Regex_engine.Regex.t
(** Forget the variables. *)

val parse : string -> (t, string) result
(** Regex syntax extended with bindings [x{…}] (an identifier directly
    followed by an opening brace). Identifiers are maximal runs of
    [[A-Za-z0-9_]], so [ax{…}] is a binding named [ax] — parenthesize the
    literal, [(a)x{…}], when that is not intended. *)

val parse_exn : string -> t
val pp : Format.formatter -> t -> unit
