(** The k-round Ehrenfeucht-Fraïssé game for FC (Section 3), with an
    exhaustive solver deciding ≡_k.

    The solver performs the full ∀(Spoiler move) ∃(Duplicator response)
    search with (a) incremental partial-isomorphism pruning, (b)
    memoization on canonicalized positions, (c) skipping of dominated
    Spoiler moves (repeating an already-played element or a constant value
    forces Duplicator's answer and changes nothing), and (d) {e forced}
    replies: when Spoiler's move occurs in a concatenation pattern with
    played elements, the pattern fixes Duplicator's only possible answer
    (or refutes the move), so the reply scan collapses to one candidate;
    otherwise replies are tried in heuristic order. The search itself
    lives in {!Packed}.

    Verdicts are three-valued: a node budget yields [Unknown] instead of a
    wrong answer, and the Duplicator-restricted mode (which only ever makes
    Duplicator weaker) upgrades positive answers to sound [Equiv] verdicts
    on instances the full search cannot finish. *)

type side = Left | Right

type move = { side : side; element : string }

type verdict = Equiv | Not_equiv | Unknown

type mode =
  | Full  (** complete search: both verdicts exact *)
  | Duplicator_limited of int
      (** Duplicator tries only a forced reply or, when no pattern
          forces one, the [n] best-scored responses; [Equiv] answers
          remain sound, failures are reported as [Unknown]. *)

type config
(** A game instance. It carries the general search's solver state
    ({!Packed.gstate}), built on first use and shared by every {!solver}
    handle on the config; like that state, a config must not be used
    from two domains at once. *)

val make : ?sigma:char list -> string -> string -> config
(** [make w v]: a game over 𝔄_w (Left) and 𝔅_v (Right). Σ defaults to the
    union of the two words' letters. *)

val left_word : config -> string
val right_word : config -> string

val base_partial_iso : config -> bool
(** Whether the constant vectors alone form a partial isomorphism (if not,
    the words are already distinguished at 0 rounds — e.g. when a letter
    occurs in only one of them). *)

type stats = {
  nodes : int;
  memo_entries : int;
  cache_hits : int;  (** transposition-table hits (0 without [?cache]) *)
  cache_misses : int;
}

val decide :
  ?mode:mode -> ?budget:int -> ?cache:Cache.t -> config -> int -> verdict
(** [decide cfg k]: does Duplicator have a winning strategy for the
    k-round game? [budget] bounds the number of search nodes (default
    50_000_000).

    Every solve runs {!Packed}'s search, chosen by the instance: when
    both words are nonempty powers of one letter, the arithmetic unary
    search ({!Packed.solve_unary}), otherwise the general search. With
    [?cache], the position is first looked up in the shared {!Cache} (as
    is every node of the search, under {!Position} keys) and budget
    exhaustions are recorded with their provenance. The table only ever
    holds exact verdicts, so with and without it the verdicts are
    identical. *)

type solver
(** A solver handle with a persistent memo table, for deciding many
    positions of the same game (e.g. by solver-backed strategies and
    {!winning_line}). Its node budget is shared by all its solves. *)

val solver : ?mode:mode -> ?budget:int -> ?cache:Cache.t -> config -> solver

val solver_wins : solver -> (string * string) list -> int -> verdict
(** [solver_wins s pairs k]: can Duplicator win [k] more rounds from the
    position given by the played [(left, right)] pairs? [Not_equiv] is also
    returned when the position itself is not a partial isomorphism. *)

val decide_with_stats :
  ?mode:mode -> ?budget:int -> ?cache:Cache.t -> config -> int ->
  verdict * stats

val equiv :
  ?sigma:char list -> ?mode:mode -> ?budget:int -> ?cache:Cache.t ->
  string -> string -> int -> verdict
(** Convenience wrapper building the config. *)

val winning_line : ?budget:int -> config -> int -> (move * string option) list option
(** When Spoiler wins the k-round game, a principal variation: Spoiler's
    winning move each round together with the Duplicator response explored
    (or [None] when no response preserves the partial isomorphism).
    Returns [None] when Duplicator wins or the budget runs out. Read off
    a {!solver} handle: the first Spoiler move (Left before Right, in
    {!spoiler_moves} order) that no reply survives, and the first of its
    {!replies}. *)

val pp_move : Format.formatter -> move -> unit
val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Shared with strategies} *)

val replies : config -> Partial_iso.entry list -> side -> string -> string Seq.t
(** [replies cfg entries side a]: Duplicator's replies to Spoiler's move
    [a] on [side] that extend the position [entries] to a partial
    isomorphism, in the general search's candidate order
    ({!Packed.reply_candidates}). When a concatenation pattern forces a
    reply, it is the only one. Checked lazily, so a caller that stops at
    the first reply it wants checks no further ones. For solver-backed
    strategies, the pebble game and {!winning_line}. *)

val pair : side -> 'a -> 'a -> 'a * 'a
(** [pair side a r]: Spoiler's move [a] on [side] and the reply [r] as a
    (left, right) pair. *)

val structures : config -> Fc.Structure.t * Fc.Structure.t
val constant_entries : config -> Partial_iso.entry list

val spoiler_moves : config -> side -> string list
(** The candidate Spoiler elements on one side (the universe minus the
    constant values), longest first — the general search's move order
    ({!Packed.spoiler_moves}). *)
