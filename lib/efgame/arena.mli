(** Arena-allocated game configurations for the solver engine.

    A stack of int pairs in two parallel arrays: a game position's
    entries (partial-isomorphism coordinates) are pushed as the search
    descends and popped as it backtracks, instead of being consed onto
    position lists. One arena per domain is reused across
    solves ({!Packed} holds it in domain-local state); {!reset} at solve
    start plus the stack discipline guarantee no configuration from an
    earlier solve can alias into a later one — {!generation} exists so
    tests can assert exactly that. *)

type t

val create : ?capacity:int -> unit -> t
val reset : t -> unit
(** Empty the arena and advance {!generation}. Marks and indices taken
    before a reset are invalid after it. *)

val push : t -> int -> int -> unit
val pop : t -> unit
val len : t -> int
val capacity : t -> int

val fst_at : t -> int -> int
val snd_at : t -> int -> int
(** Unchecked reads of entry [i] (caller keeps [i < len]). *)

val mark : t -> int
val release : t -> int -> unit
(** [release t (mark t)] restores the stack to the marked depth; raises
    [Invalid_argument] when the mark exceeds the current length (i.e. it
    was taken before a {!reset}). *)

val generation : t -> int
(** Incremented by every {!reset}; pair with {!mark} to detect stale
    reuse across solves. *)

val to_list : ?from:int -> t -> (int * int) list
(** Entries from index [from] upward, bottom to top (diagnostics and
    string interop, e.g. materializing a shared-cache key). *)

val cols : t -> int array * int array
val col_a : t -> int array
val col_b : t -> int array
(** The two live columns, for tight read loops: entries occupy indices
    [0 .. len - 1]; anything beyond is garbage. The arrays are replaced
    when a {!push} grows the arena and stale after {!reset}, so fetch
    them fresh per call and never hold them across a push. *)
