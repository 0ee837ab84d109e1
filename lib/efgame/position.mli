(** Canonical keys for EF-game positions, shared by the transposition
    table ({!Cache}) and the solver's local memo tables.

    A position is the multiset of played (left, right) pairs of a game
    together with the identity of the two structures. Keys are normalized
    under

    - {e play order}: pairs are sorted, so the same set of entries reached
      through different move interleavings maps to one key; and
    - {e left/right symmetry}: the game on (w, v) at position P has the
      same value as the game on (v, w) at the mirrored position, so both
      normalize to a single orientation (the lexicographically smaller
      word pair; for w = v, the smaller of the two encodings).

    Unary games get a compact arithmetic encoding ({!unary_key}) in which
    factors are represented by their lengths; since a^p-structures over
    any single letter are isomorphic, the key deliberately omits the
    letter, so cache entries are shared between letters. *)

type key = string
(** Compact canonical encoding. Opaque in spirit; exposed as [string] so
    it can be hashed and compared without boxing. *)

val key :
  sigma:char list -> left:string -> right:string -> (string * string) list -> key
(** [key ~sigma ~left ~right pairs]: canonical key for the position
    [pairs] of the game on words [left] and [right] over alphabet
    [sigma]. The alphabet is part of the key because it determines the
    constant vector (letters absent from both words still contribute ⊥
    constants). *)

val unary_key : p:int -> q:int -> (int * int) list -> key
(** [unary_key ~p ~q pairs]: canonical key for a position of the unary
    game on c^p vs c^q, with factors given by their lengths. *)

val key_depth : key -> int
(** Number of played pairs recorded in a key (either encoding): the depth
    of the position below the game's root. Constant entries don't count.
    Used by {!Persist} to snapshot only the shallow, high-reuse layers of
    a table, and by the scan engines to skip table traffic for deep
    nodes. *)
