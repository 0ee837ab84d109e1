(** Variable-set automata (vset-automata) — the automaton representation of
    regular spanners in the document-spanner framework (Fagin et al.).

    A vset-automaton is an NFA whose transitions are either letter reads or
    variable operations ⊢x (open) and x⊣ (close); an accepting run over a
    document assigns each variable the span between its open and close
    operations. Regex formulas compile into vset-automata (Thompson-style);
    {!eval} is the library's only regex-formula evaluator (every
    [Algebra.Extract] runs on it) and is tested against a brute-force
    reference matcher. *)

type label =
  | Read of char
  | Open of string  (** ⊢x *)
  | Close of string  (** x⊣ *)

type t

val make :
  states:int -> start:int -> accepting:int list ->
  transitions:(int * label * int) list -> t
(** Raises [Invalid_argument] on out-of-range states. The variable set is
    inferred from the labels. *)

val states : t -> int
val start : t -> int
val accepting : t -> int list
val vars : t -> string list
val transitions : t -> (int * label * int) list

val of_regex_formula : Regex_formula.t -> t
(** Thompson construction; [Bind (x, f)] becomes ⊢x · f · x⊣. *)

val eval : t -> string -> Relation.t
(** All accepting runs over the whole document, as a span relation over the
    automaton's variables. A depth-first search over configurations
    (state, position, variable operations so far), each visited once.
    Runs that do not open and close every variable produce no row, so a
    non-functional automaton silently loses rows rather than raising;
    check {!is_functional} (or [Regex_formula.is_functional]) first. *)

val is_functional : t -> bool
(** Every accepting run opens and closes every variable exactly once
    (decided by reachability over variable-status abstractions). *)

val run_count : t -> string -> int
(** Number of accepting configurations that open and close every
    variable (the evaluator merges branches that reach the same state with
    the same sequence of variable operations, so syntactically duplicated
    paths count once). *)
