(** The solver engine: every ≡_k search of the library.

    Factors become suffix-automaton ids ({!Words.Factor_bitset}), game
    configurations live in a per-domain {!Arena}, and memo keys are
    packed integers. There is one search per game shape: the arithmetic
    unary search ({!solve_unary}) and the general ∀∃ recursion
    ({!solve_general}, which also plays Existential's one-sided game).
    Both prune dominated Spoiler moves (repeats of a played element) and
    collapse the reply scan to the single reply a concatenation pattern
    forces — or refute the move when the forcings conflict — which is
    exact: every other reply breaks the partial isomorphism.

    The contract is verdict identity with an independent brute-force
    oracle built straight from the FC structure definition
    (test/oracle.ml); distributed scans merge verdicts monotonically and
    rely on it (see DESIGN.md). Dispatch lives in {!Game},
    {!Existential} and {!Witness}. *)

exception Budget_exceeded

val solve_unary :
  ?cache:Cache.t ->
  ?store_depth:int ->
  ?limit:int ->
  ?budget:int ->
  p:int ->
  q:int ->
  init:(int * int) list ->
  int ->
  bool option * int * int
(** [solve_unary ~p ~q ~init k]: can Duplicator win [k] more rounds of
    the game on c^p vs c^q from the position given by the played [init]
    pairs of lengths? Over one letter a factor is its length and every
    concatenation pattern an additive equation (a = x + u, x − u or
    x / 2 over played entries), so this search never allocates a string.
    Each node with two or more rounds left tabulates its patterns once,
    in O(len²) per side: a pattern map from every value at which one
    fires to the reply it forces, or to a conflict when none can; a
    1-round leaf below it reads that map plus the O(len) patterns
    through its newest entry. Replies are tried in {!reply_order},
    shared by consecutive solves of one (p, q). Since a pattern fires on
    one side exactly when it fires on the other at the forced reply,
    the map answers exactly: a pair extends the position iff both
    values are unmapped or each maps to the other; a mapped move's
    reply is forced; and the 1-round game, played at every leaf without
    the memo, is won by Duplicator iff neither side maps a conflict and
    unmapped values exist on both sides or on neither. Lookups decide
    exactly what checking the patterns one by one would, so they change
    the cost of a node, not which nodes the search visits: node counts
    and memo entries are identical on purpose. Requires
    [p ≥ 1] and [q ≥ 1] (so the letter constant is defined on both
    sides). [limit] is the Duplicator candidate width ([max_int],
    the default, is the full search; with a finite limit, [Some true]
    stays sound and [Some false] only means the truncated search
    failed). [store_depth] bounds the position depth (played pairs) at
    which the shared [cache] is consulted and written — deeper nodes use
    only the solve-local memo. Depth gating is a pure time/space
    trade-off: within one solve the local memo already deduplicates,
    and across solves only shallow positions are ever re-reachable, so
    verdicts are unaffected. Returns [(result, nodes, memo_entries)],
    where [memo_entries] counts positions with at least two rounds left
    (leaves are not memoized); [result] is [None] when the node [budget]
    is exhausted. *)

val reply_order : mine_max:int -> other_max:int -> int -> int array
(** [reply_order ~mine_max ~other_max a]: the order in which the unary
    search tries Duplicator's replies [0..other_max] to Spoiler's move
    [a] on the side of length [mine_max] — ascending (score, b), where
    the identical reply b = a scores -1 and any other b scores its
    distance to the nearest of a, the mirror a + g and the half-shifts
    a + g / 2 and a + g − g / 2 (g = other_max − mine_max, [/]
    truncating). A heuristic order, built in O(mine_max + other_max). *)

(** {1 General (two-word) games} *)

type gstate
(** Solver state for a fixed (left, right, constants) instance: both
    factor indexes, cross-word factor maps, move arrays and memoized
    per-move candidate orders. Reusable across solves of the same
    instance on one domain (it holds unsynchronized memo tables). *)

val make_gstate :
  Fc.Structure.t ->
  Fc.Structure.t ->
  (string option * string option) list ->
  gstate
(** Raises [Invalid_argument] if a defined constant is not a factor of
    its word. *)

val spoiler_moves : gstate -> swap:bool -> string list
(** Spoiler's moves on the left ([swap = false]) or right side: the
    universe minus the constant values, longest first, ties in
    [String.compare] order — the general search's move order. *)

val reply_candidates : gstate -> swap:bool -> string -> string list
(** [reply_candidates g ~swap a]: every factor of the other word, in the
    order the general search tries them as Duplicator's reply to
    Spoiler's move [a] — the identical reply first, then by
    prefix/suffix status penalty, length distance and [String.compare].
    The order does not depend on the position. Raises [Invalid_argument]
    when [a] is not a factor of its word. *)

type memo
(** A position memo (rounds remaining × played pairs → verdict) that a
    solver handle keeps across solves of one instance. Entries are exact
    for the width they were computed under, so one memo must only serve
    one Duplicator width. *)

val memo : gstate -> memo
val memo_size : memo -> int

val solve_general :
  gstate ->
  memo:memo ->
  ?cache:Cache.t ->
  limit:int ->
  nodes0:int ->
  budget:int ->
  init:(string * string) list ->
  int ->
  bool option * int
(** [solve_general g ~memo ~budget ~init k]: can Duplicator win [k] more
    rounds from the position where the [init] (left, right) pairs have
    been played? The caller checks that the position is a partial
    isomorphism; raises [Invalid_argument] when an element is not a
    factor of its word. Returns [(verdict, nodes)] with [nodes] counted
    on top of [nodes0] (so a handle's running total threads through the
    budget check); [None] on budget exhaustion. With [cache] every node
    consults and feeds the shared table ({!Position.key} keys); [limit]
    caps the unconstrained reply scan ([max_int]: the full search;
    forced replies are always tried), and a limited search stores only
    Duplicator wins. *)

val solve_existential : gstate -> budget:int -> int -> bool option
(** The one-sided {!Existential} game from the constants: Spoiler moves
    on the left only, preservation checked left to right. The caller
    performs the top-level check of the constant vector. *)

(** {1 Test hooks} *)

val scratch_arena : unit -> Arena.t
(** This domain's solve arena (shared by all solves on the domain).
    Exposed so tests can assert the reuse discipline: resets advance the
    generation, and no configuration survives across solves. *)
