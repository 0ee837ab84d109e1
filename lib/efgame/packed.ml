(* The solver engine: every ≡_k search of the library runs here, over
   succinct representations — factors as suffix-automaton ids
   ({!Words.Factor_bitset}), positions as arena-allocated int pairs
   ({!Arena}), memo keys as packed integers.

   There is one search per game shape: the arithmetic unary search
   ([solve_unary]) and the general ∀∃ recursion ([run]), which also
   plays Existential's one-sided game. The correctness reference is not
   a second copy of these searches but an independent brute-force
   oracle (test/oracle.ml) built straight from the FC structure
   definition; the contract is verdict identity with it.

   Representation choices, in one place:
   - a position's entries live in a per-domain {!Arena} (reset at solve
     start, pushed/popped during search: no per-node allocation);
   - memo keys pack the sorted played pairs into one OCaml int behind a
     sentinel bit whenever they fit in 62 bits, falling back to
     int-array keys;
   - a unary node's concatenation patterns are one O(len²) pattern map
     per side (value -> the reply it forces), built once per node into
     stamped per-domain slots; extension checks, forced replies and the
     1-round closed form are lookups in it; a 1-round leaf skips the
     memo and adds only its newest entry's O(len) patterns to its
     parent's map. Unary reply orders take O(p + q) per move and are
     shared by a pair's round chain. A lookup decides exactly what
     checking each pattern would: node counts are identical on purpose;
   - shared-{!Cache} traffic uses {!Position} string keys, so table
     bytes and the persistence format do not depend on the in-memory
     representation. *)

module Factor_bitset = Words.Factor_bitset

exception Budget_exceeded

(* Every node expansion lands in the bucket of its rounds-remaining, so
   the merged vector sums to the scan's global node total; the prune
   counters record why subtrees were never expanded. *)
let m_nodes = Obs.Metrics.vec ~buckets:8 "game.nodes_by_k"
let m_prune_dominated = Obs.Metrics.counter "game.prune.dominated"
let m_prune_forced = Obs.Metrics.counter "game.prune.forced"
let m_prune_unsat = Obs.Metrics.counter "game.prune.unsat"

(* smallest b >= 1 with v < 2^b *)
let bits_for v =
  let rec go b = if v lsr b = 0 then b else go (b + 1) in
  max 1 (go 0)

(* ------------------------------------------------------------------ *)
(* Per-domain scratch: one arena, one sort buffer and the unary pattern
   maps, reused across every solve on this domain. Solves reset the
   arena on entry and are not reentrant, so stack discipline guarantees
   no state leaks from one solve into the next (asserted by the
   arena-reuse tests); map slots are stamped with a generation that
   only ever grows, so no stale slot reads as live. *)

type scratch = {
  ar : Arena.t;
  mutable keybuf : int array;
  mutable stamp : int array; (* pattern-map slot -> generation *)
  mutable fwd : int array; (* pattern-map slot -> forced reply *)
  mutable gen : int; (* stamp of the last build *)
  mutable clash : bool; (* the last build mapped a conflict *)
  mutable pq : int * int; (* the unary instance [replies] serves *)
  mutable replies : int array array; (* left moves, then right: order *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        ar = Arena.create ();
        keybuf = Array.make 16 0;
        stamp = [||];
        fwd = [||];
        gen = 0;
        clash = false;
        pq = (0, 0);
        replies = [||];
      })

let scratch () = Domain.DLS.get scratch_key
let scratch_arena () = (scratch ()).ar

let ensure_keybuf s n =
  if Array.length s.keybuf < n then
    s.keybuf <- Array.make (max 16 (2 * n)) 0

let ensure_maps s slots =
  if Array.length s.stamp < slots then begin
    s.stamp <- Array.make slots 0;
    s.fwd <- Array.make slots 0
  end

(* ------------------------------------------------------------------ *)
(* Position memo: one table per remaining-round count, grown on demand
   so a solver handle can keep it across solves from different depths.
   A key is the sorted played pairs: packed into one int behind a
   leading sentinel bit (which encodes the pair count, so positions with
   different numbers of pairs never collide), or copied into an int
   array when that would exceed 62 bits. *)

module Pmemo = struct
  type t = {
    pairbits : int;
    mutable tbl : (int, bool) Hashtbl.t array;
    mutable big : (int array, bool) Hashtbl.t array;
  }

  let create ~pairbits = { pairbits; tbl = [||]; big = [||] }

  let size m =
    let total = ref 0 in
    Array.iter (fun t -> total := !total + Hashtbl.length t) m.tbl;
    Array.iter (fun t -> total := !total + Hashtbl.length t) m.big;
    !total

  let grow a k =
    Array.init (k + 1) (fun i ->
        if i < Array.length a then a.(i) else Hashtbl.create 64)

  (* memoized [compute ()] under the key in buf.[0 .. n-1] *)
  let cached m k buf n compute =
    if k >= Array.length m.tbl then begin
      m.tbl <- grow m.tbl k;
      m.big <- grow m.big k
    end;
    if n * m.pairbits <= 61 then begin
      let key = ref 1 in
      for i = 0 to n - 1 do
        key := (!key lsl m.pairbits) lor buf.(i)
      done;
      let key = !key in
      match Hashtbl.find_opt m.tbl.(k) key with
      | Some r -> r
      | None ->
          let r = compute () in
          Hashtbl.replace m.tbl.(k) key r;
          r
    end
    else begin
      let key = Array.sub buf 0 n in
      match Hashtbl.find_opt m.big.(k) key with
      | Some r -> r
      | None ->
          let r = compute () in
          Hashtbl.replace m.big.(k) key r;
          r
    end
end

(* Pack the played pairs (arena indices >= nconsts) into keybuf, each as
   (x lsl rbits) lor y, insertion-sorted ascending; returns the count.
   Numeric order on packed pairs is lexicographic order on (x, y), so
   two positions collide exactly when their sorted pair lists are
   equal. *)
let fill_sorted_pairs s ar ~nconsts ~rbits =
  let n = Arena.len ar - nconsts in
  ensure_keybuf s n;
  let buf = s.keybuf in
  let xs = Arena.col_a ar and ys = Arena.col_b ar in
  for i = 0 to n - 1 do
    let v =
      (Array.unsafe_get xs (nconsts + i) lsl rbits)
      lor Array.unsafe_get ys (nconsts + i)
    in
    let j = ref i in
    while !j > 0 && buf.(!j - 1) > v do
      buf.(!j) <- buf.(!j - 1);
      decr j
    done;
    buf.(!j) <- v
  done;
  n

(* ================================================================== *)
(* Unary games.                                                        *)
(* ================================================================== *)

(* Over a single letter, 𝔄_{c^p} is isomorphic to ({0, …, p}, +|≤p, 0,
   1): a factor is its length and every concatenation pattern is an
   additive equation. *)

(* Spoiler move order: refuting moves cluster at the top of the range
   (the whole-word and near-whole-word factors) and at the small end,
   so interleave the two directions. Order only — the loop is still
   exhaustive over [2..m]. *)
let move_order m =
  let out = ref [] in
  let hi = ref m and lo = ref 2 in
  while !hi >= !lo do
    out := !hi :: !out;
    if !lo < !hi then out := !lo :: !out;
    decr hi;
    incr lo
  done;
  List.rev !out

(* the polymorphic [min] calls the generic compare: too slow here *)
let imin (x : int) y = if x < y then x else y

(* Replies that tend to survive, in order: identical (b = a), mirror
   (same distance from the right end), same distance shifted by half the
   length gap — the shift Duplicator's midpoint strategies use — and
   then by plain closeness, ties by ascending b. The order is a
   heuristic only; the scan stays exhaustive. A counting sort on the
   score builds it in O(mine_max + other_max). *)
let reply_order ~mine_max ~other_max a =
  let g = other_max - mine_max in
  let h = g / 2 and h' = g - (g / 2) in
  (* [c.(b)] is b's score + 1 (scores lie in [-1 .. max mine_max
     other_max]), [start.(s)] where the replies of score s - 1 go *)
  let c = Array.make (other_max + 1) 0 in
  let start = Array.make (max mine_max other_max + 3) 0 in
  for b = 0 to other_max do
    let d = b - a in
    if d <> 0 then
      c.(b) <-
        1
        + imin (imin (abs d) (abs (d - g))) (imin (abs (d - h)) (abs (d - h')));
    start.(c.(b) + 1) <- start.(c.(b) + 1) + 1
  done;
  for s = 1 to Array.length start - 1 do
    start.(s) <- start.(s) + start.(s - 1)
  done;
  let out = Array.make (other_max + 1) 0 in
  for b = 0 to other_max do
    out.(start.(c.(b))) <- b;
    start.(c.(b)) <- start.(c.(b)) + 1
  done;
  out

(* Pattern maps. Every concatenation pattern a new entry (a, b) can
   complete with entries (x, y), (u, v) of the position is an additive
   equation with a as its unknown: a = x + u, a = x − u (from x = a + u,
   or u + a) and a = x / 2 (from x = a + a); equality a = x is a = x + 0
   through the (0, 0) constant. Such a pattern fires on the left at
   exactly one value, and on the right exactly at the matching
   y + v, y − v or y / 2. One O(len²) pass per side therefore tabulates,
   for every value of [0..mine_max] at which some pattern fires, the
   reply those patterns force — or [conflict] when two disagree, the
   reply leaves [0..other_max] or the half is odd, so that no reply
   completes them. Since each pattern fires on one side iff it fires on
   the other at the forced reply, (a, b) extends the partial isomorphism
   iff neither value is mapped, or fwd_L a = b and fwd_R b = a.

   A node's two maps sit in the scratch slots of its arena length,
   stamped with a fresh generation instead of cleared: a slot with an
   older stamp reads as unmapped. Children build at the next length, so
   a node's maps stay valid across its whole expansion. *)

let unmapped = -1
let conflict = -2

let pm_get s g i =
  if Array.unsafe_get s.stamp i = g then Array.unsafe_get s.fwd i
  else unmapped

(* A pattern fires at [v] and forces [r]: record it in the slots from
   [base] under stamp [g] — unless the parent's map (stamp [gp] from
   [pbase]; -1: none) maps [v], when [r] must agree with its reply. [n]
   counts the values mapped outside the parent's map; returns the new
   count. *)
let pm_set s g gp base pbase mine_max other_max n v r =
  if v < 0 || v > mine_max then n
  else if Array.unsafe_get s.stamp (pbase + v) = gp then begin
    if Array.unsafe_get s.fwd (pbase + v) <> r then s.clash <- true;
    n
  end
  else
    let r = if r < 0 || r > other_max then conflict else r in
    let i = base + v in
    if Array.unsafe_get s.stamp i <> g then begin
      Array.unsafe_set s.stamp i g;
      Array.unsafe_set s.fwd i r;
      if r = conflict then s.clash <- true;
      n + 1
    end
    else begin
      if Array.unsafe_get s.fwd i <> r then begin
        Array.unsafe_set s.fwd i conflict;
        s.clash <- true
      end;
      n
    end

(* The patterns entry [i] completes with entries [0..i] — x_i / 2,
   x_i + x_j, x_i − x_j and x_j − x_i — on the side whose entries are
   [xs] ([ys] the other side's). Adding them for i = 0, 1, … visits
   every pattern of a position; a 1-round leaf adds only its newest
   entry's on top of its parent's map, which holds all the others. *)
let map_entry s g gp base pbase ~mine_max ~other_max xs ys n i =
  let x = Array.unsafe_get xs i and y = Array.unsafe_get ys i in
  let n =
    ref
      (if x land 1 = 0 then
         pm_set s g gp base pbase mine_max other_max n (x asr 1)
           (if y land 1 = 0 then y asr 1 else conflict)
       else n)
  in
  for j = 0 to i do
    let u = Array.unsafe_get xs j and v = Array.unsafe_get ys j in
    n := pm_set s g gp base pbase mine_max other_max !n (x + u) (y + v);
    n := pm_set s g gp base pbase mine_max other_max !n (x - u) (y - v);
    n := pm_set s g gp base pbase mine_max other_max !n (u - x) (v - y)
  done;
  !n

let solve_unary ?cache ?(store_depth = max_int) ?(limit = max_int)
    ?(budget = 50_000_000) ~p ~q ~init k0 =
  if p < 1 || q < 1 then
    invalid_arg "Packed.solve_unary: need p >= 1 and q >= 1";
  let s = scratch () in
  let ar = s.ar in
  Arena.reset ar;
  Arena.push ar 0 0;
  Arena.push ar 1 1;
  let nconsts = 2 in
  let full = limit = max_int in
  let nodes = ref 0 in
  let rbits = bits_for (max p q) in
  let memo = Pmemo.create ~pairbits:(2 * rbits) in
  (* reply orders depend only on (p, q, side, move): the scratch keeps
     the last instance's, which a pair's round chain shares *)
  if s.pq <> (p, q) then begin
    s.pq <- (p, q);
    s.replies <- Array.make (p + q + 2) [||]
  end;
  let replies swap a =
    let i = if swap then p + 1 + a else a in
    if Array.length s.replies.(i) = 0 then
      s.replies.(i) <-
        (if swap then reply_order ~mine_max:q ~other_max:p a
         else reply_order ~mine_max:p ~other_max:q a);
    s.replies.(i)
  in
  let order_l = move_order p and order_r = move_order q in
  (* map slots: two sides of width [w] per arena length; a path pushes
     at most k0 entries, and at most p + q (every push plays a new value
     on its mover's side) *)
  let w = max p q + 1 in
  let pushes = if k0 >= 0 && k0 < p + q then k0 else p + q in
  ensure_maps s (2 * (nconsts + List.length init + pushes + 1) * w);
  (* [build gp nl0 nr0] maps the current node (left side from [base],
     right from [base + w]) and returns their stamp; [nl] and [nr] count
     the mapped values of each side. [gp] = -1 builds from scratch. A
     1-round leaf under a k = 2 node (always so when k0 >= 2) passes
     [!parent], that node's stamp, clash flag and counts: its map is the
     parent's, one length down, plus its newest entry's patterns, so
     only those are added, in O(len) (and a left clash skips the right) *)
  let nl = ref 0 and nr = ref 0 in
  let parent = ref (-1, false, 0, 0) in
  let build gp nl0 nr0 =
    let g = s.gen + 1 in
    s.gen <- g;
    s.clash <- false;
    let len = Arena.len ar in
    let l = Arena.col_a ar and r = Arena.col_b ar in
    let base = 2 * len * w in
    nl := nl0;
    nr := nr0;
    for i = (if gp < 0 then 0 else len - 1) to len - 1 do
      nl :=
        map_entry s g gp base (base - 2 * w) ~mine_max:p ~other_max:q l r
          !nl i;
      if gp < 0 || not s.clash then
        nr :=
          map_entry s g gp (base + w) (base - w) ~mine_max:q ~other_max:p r l
            !nr i
    done;
    g
  in
  let rec wins k =
    incr nodes;
    Obs.Metrics.vec_incr m_nodes k;
    if !nodes > budget then raise Budget_exceeded;
    if k = 0 then true
    else if k = 1 then leaf ()
    else
      let n = fill_sorted_pairs s ar ~nconsts ~rbits in
      Pmemo.cached memo k s.keybuf n (fun () -> compute k n)
  (* The 1-round game in closed form, skipping both memo and shared
     table (it is cheaper than their keys). A mapped move must be
     answered by its forced reply, and the pattern forcing it fires at
     the reply too, so the reply's own entry maps back to the move
     unless it is a conflict. An unmapped move fires no pattern: any
     unmapped reply answers it and no mapped one does. So Duplicator
     survives iff neither side maps a conflict and unmapped values exist
     on both sides or on neither. 0 and 1 are always mapped (to
     themselves: constants, like played values, never conflict in a
     partial isomorphism), so a side has an unmapped value iff fewer
     than max + 1 of its values are mapped. *)
  and leaf () =
    let gp, pclash, pnl, pnr = !parent in
    (* a parent's conflict is its leaves' too *)
    (not pclash)
    && (ignore (build gp pnl pnr);
        (not s.clash) && (!nl <= p) = (!nr <= q))
  and compute k n =
    (* deep positions skip the shared table: during a cold scan they
       are never re-reachable from another instance (keys embed
       (p, q)), so building their keys is pure overhead *)
    let gkey =
      match cache with
      | Some _ when n <= store_depth ->
          Some (Position.unary_key ~p ~q (Arena.to_list ~from:nconsts ar))
      | _ -> None
    in
    let cached_r =
      match (cache, gkey) with
      | Some c, Some key -> Cache.lookup c key ~k
      | _ -> None
    in
    match cached_r with
    | Some r -> r
    | None ->
        let g = build (-1) 0 0 in
        if k = 2 then parent := (g, s.clash, !nl, !nr);
        let r = spoiler g false k && spoiler g true k in
        (match (cache, gkey) with
        | Some c, Some key ->
            (* limited-mode failures are not genuine Spoiler wins *)
            if r || full then Cache.store c key ~k r
        | _ -> ());
        r
  and spoiler g swap k =
    let base = 2 * Arena.len ar * w in
    let mine = if swap then base + w else base in
    let other = if swap then base else base + w in
    let rec moves = function
      | [] -> true
      | a :: rest -> (dominated a || survives a) && moves rest
    and dominated a =
      let len = Arena.len ar in
      let l = Arena.col_a ar and r = Arena.col_b ar in
      let xs = if swap then r else l in
      let rec go i = i < len && (Array.unsafe_get xs i = a || go (i + 1)) in
      let d = go nconsts in
      if d then Obs.Metrics.incr m_prune_dominated;
      d
    and survives a =
      let f = pm_get s g (mine + a) in
      if f = conflict then begin
        Obs.Metrics.incr m_prune_unsat;
        false
      end
      else if f = unmapped then
        (* only an unmapped reply extends; mapped ones still count
           toward [limit] *)
        let cand = replies swap a in
        let m = imin limit (Array.length cand) in
        let rec go i =
          i < m
          && (let b = Array.unsafe_get cand i in
              (pm_get s g (other + b) = unmapped && descend a b) || go (i + 1))
        in
        go 0
      else begin
        (* f's own entry is a or a conflict. In the second case Spoiler's
           move f refutes this node anyway, but the check keeps the
           search out of positions that are no partial isomorphism *)
        Obs.Metrics.incr m_prune_forced;
        pm_get s g (other + f) = a && descend a f
      end
    and descend a b =
      if swap then Arena.push ar b a else Arena.push ar a b;
      let r = wins (k - 1) in
      Arena.pop ar;
      r
    in
    moves (if swap then order_r else order_l)
  in
  (* validate the initial position entry by entry (once an entry fails,
     later ones are not added) *)
  let valid = ref true in
  List.iter
    (fun (l, r) ->
      if
        !valid && l >= 0 && l <= p && r >= 0 && r <= q
        &&
        let g = build (-1) 0 0 in
        let base = 2 * Arena.len ar * w in
        let fl = pm_get s g (base + l) and fr = pm_get s g (base + w + r) in
        (fl = unmapped && fr = unmapped) || (fl = r && fr = l)
      then Arena.push ar l r
      else valid := false)
    init;
  let result =
    if not !valid then Some false
    else try Some (wins k0) with Budget_exceeded -> None
  in
  (result, !nodes, Pmemo.size memo)

(* ================================================================== *)
(* General (two-word) games over factor ids.                           *)
(* ================================================================== *)

type gside = {
  fb : Factor_bitset.t;
  lexrank : int array; (* id -> rank in String.compare order *)
  wlen : int;
}

type gstate = {
  gl : gside;
  gr : gside;
  sigma : char list; (* part of every shared-table key *)
  consts_l : int array; (* parallel entry coordinates; -1 encodes ⊥ *)
  consts_r : int array;
  moves_l : int array; (* Spoiler moves, longest first (desc len, lex) *)
  moves_r : int array;
  xmap_lr : int array; (* left id -> right id of the same string, or -1 *)
  xmap_rl : int array;
  cand_l : int array option array; (* response order per left move *)
  cand_r : int array option array;
  lbits : int;
  gbits : int; (* bits of a packed (left, right) pair: lbits + rbits *)
}

(* String.compare on two factors of one word, via character reads. *)
let cmp_lex fb i j =
  if i = j then 0
  else
    let w = Factor_bitset.word fb in
    let li = Factor_bitset.length fb i and lj = Factor_bitset.length fb j in
    let si = Factor_bitset.start fb i and sj = Factor_bitset.start fb j in
    let m = if li < lj then li else lj in
    let rec go k =
      if k = m then compare li lj
      else
        let c = Char.compare w.[si + k] w.[sj + k] in
        if c <> 0 then c else go (k + 1)
    in
    go 0

(* Spoiler's move order: descending length, then String.compare. *)
let cmp_desc_len fb i j =
  let c = compare (Factor_bitset.length fb j) (Factor_bitset.length fb i) in
  if c <> 0 then c else cmp_lex fb i j

let make_gside w =
  let fb = Factor_bitset.of_word w in
  let size = Factor_bitset.size fb in
  let ids = Array.init size Fun.id in
  Array.sort (cmp_lex fb) ids;
  let lexrank = Array.make size 0 in
  Array.iteri (fun rank id -> lexrank.(id) <- rank) ids;
  { fb; lexrank; wlen = String.length w }

let id_of fb v =
  match Factor_bitset.id_of fb v with
  | Some i -> i
  | None -> invalid_arg "Packed: element is not a factor of its word"

let const_ids fb proj consts =
  List.map
    (fun e -> match proj e with None -> -1 | Some v -> id_of fb v)
    consts
  |> Array.of_list

let movable side consts =
  let size = Factor_bitset.size side.fb in
  let skip = Factor_bitset.Bitset.create size in
  Array.iter (fun i -> if i >= 0 then Factor_bitset.Bitset.add skip i) consts;
  let out = ref [] in
  for i = size - 1 downto 0 do
    if not (Factor_bitset.Bitset.mem skip i) then out := i :: !out
  done;
  let arr = Array.of_list !out in
  Array.sort (cmp_desc_len side.fb) arr;
  arr

let cross_map from_ to_ =
  Array.init (Factor_bitset.size from_.fb) (fun a ->
      Factor_bitset.id_of_sub to_.fb
        (Factor_bitset.word from_.fb)
        ~off:(Factor_bitset.start from_.fb a)
        ~len:(Factor_bitset.length from_.fb a))

let make_gstate left right consts =
  let lw = Fc.Structure.word left and rw = Fc.Structure.word right in
  let gl = make_gside lw and gr = make_gside rw in
  let fl = Factor_bitset.size gl.fb and fr = Factor_bitset.size gr.fb in
  let consts_l = const_ids gl.fb fst consts in
  let consts_r = const_ids gr.fb snd consts in
  let lbits = bits_for (max 1 (fl - 1)) in
  {
    gl;
    gr;
    sigma = Fc.Structure.sigma left;
    consts_l;
    consts_r;
    moves_l = movable gl consts_l;
    moves_r = movable gr consts_r;
    xmap_lr = cross_map gl gr;
    xmap_rl = cross_map gr gl;
    cand_l = Array.make fl None;
    cand_r = Array.make fr None;
    lbits;
    gbits = lbits + bits_for (max 1 (fr - 1));
  }

(* Duplicator's reply order for Spoiler move [a]: the whole response
   universe sorted by (identical response first, prefix/suffix status
   penalty, length distance, String.compare). The score is
   position-independent, so the order is computed once per (side, move)
   and reused at every node. *)
let build_candidates ~from_ ~to_ ~xmap a =
  let ft = Factor_bitset.size to_.fb in
  let la = Factor_bitset.length from_.fb a in
  let lf = from_.wlen and lt = to_.wlen in
  let apre = Factor_bitset.is_word_prefix from_.fb a in
  let asuf = Factor_bitset.is_word_suffix from_.fb a in
  let xa = xmap.(a) in
  (* dist <= lf + lt, so this orders (penalty, dist) lexicographically *)
  let score =
    Array.init ft (fun r ->
        if r = xa then -1
        else
          let lr = Factor_bitset.length to_.fb r in
          let pen =
            (if Factor_bitset.is_word_prefix to_.fb r = apre then 0 else 1)
            + if Factor_bitset.is_word_suffix to_.fb r = asuf then 0 else 1
          in
          let dist = min (abs (lt - lr - (lf - la))) (abs (lr - la)) in
          (pen * (lf + lt + 1)) + dist)
  in
  let arr = Array.init ft Fun.id in
  Array.sort
    (fun r r' ->
      let c = compare score.(r) score.(r') in
      if c <> 0 then c else compare to_.lexrank.(r) to_.lexrank.(r'))
    arr;
  arr

let candidates st swap a =
  let tbl = if swap then st.cand_r else st.cand_l in
  match tbl.(a) with
  | Some arr -> arr
  | None ->
      let arr =
        if swap then
          build_candidates ~from_:st.gr ~to_:st.gl ~xmap:st.xmap_rl a
        else build_candidates ~from_:st.gl ~to_:st.gr ~xmap:st.xmap_lr a
      in
      tbl.(a) <- Some arr;
      arr

let spoiler_moves st ~swap =
  let fb = if swap then st.gr.fb else st.gl.fb in
  Array.to_list
    (Array.map (Factor_bitset.extract fb) (if swap then st.moves_r else st.moves_l))

let reply_candidates st ~swap a =
  let ffb = if swap then st.gr.fb else st.gl.fb in
  let tfb = if swap then st.gl.fb else st.gr.fb in
  Array.to_list
    (Array.map (Factor_bitset.extract tfb) (candidates st swap (id_of ffb a)))

(* Forced Duplicator replies, oriented by [swap] (false: Spoiler moved
   on the left). When the move [a] occurs in a concatenation pattern
   with known (both-sides-defined) entries, triple-consistency
   determines the reply: a = xi·xj forces yi·yj; xi = a·xj forces the
   prefix of yi complementing yj; xi = xj·a forces the suffix; xi = a·a
   forces the half of yi. Every other reply breaks one of those
   triples, so restricting the scan to the forced value is exact.
   Returns the forced id, -1 when unconstrained, and -2 when the
   forcings conflict or fall outside the reply structure (no reply
   preserves the position: the move refutes it). *)
let forced st ar swap a =
  let ffb = if swap then st.gr.fb else st.gl.fb in
  let tfb = if swap then st.gl.fb else st.gr.fb in
  let len = Arena.len ar in
  let l = Arena.col_a ar and r = Arena.col_b ar in
  let xs = if swap then r else l and ys = if swap then l else r in
  let la = Factor_bitset.length ffb a in
  let out = ref (-1) in
  let force v =
    if v < 0 then raise Exit
    else if !out = -1 then out := v
    else if !out <> v then raise Exit
  in
  try
    for i = 0 to len - 1 do
      let xi = xs.(i) and yi = ys.(i) in
      if xi >= 0 && yi >= 0 then begin
        let li = Factor_bitset.length ffb xi in
        let lyi = Factor_bitset.length tfb yi in
        if li = 2 * la && Factor_bitset.concat ffb a a = xi then begin
          if lyi land 1 = 1 then raise Exit;
          let h = Factor_bitset.sub_id tfb yi ~off:0 ~len:(lyi / 2) in
          force (if Factor_bitset.concat tfb h h = yi then h else -1)
        end;
        for j = 0 to len - 1 do
          let xj = xs.(j) and yj = ys.(j) in
          if xj >= 0 && yj >= 0 then begin
            let lj = Factor_bitset.length ffb xj in
            let lyj = Factor_bitset.length tfb yj in
            if la = li + lj && Factor_bitset.concat ffb xi xj = a then
              force (Factor_bitset.concat tfb yi yj);
            if
              li = la + lj
              && Factor_bitset.is_prefix_of ffb a xi
              && Factor_bitset.is_suffix_of ffb xj xi
            then
              force
                (if Factor_bitset.is_suffix_of tfb yj yi then
                   Factor_bitset.sub_id tfb yi ~off:0 ~len:(lyi - lyj)
                 else -1);
            if
              li = lj + la
              && Factor_bitset.is_prefix_of ffb xj xi
              && Factor_bitset.is_suffix_of ffb a xi
            then
              force
                (if Factor_bitset.is_prefix_of tfb yj yi then
                   Factor_bitset.sub_id tfb yi ~off:lyj ~len:(lyi - lyj)
                 else -1)
          end
        done
      end
    done;
    !out
  with Exit -> -2

let c3 fb x y z = x >= 0 && y >= 0 && z >= 0 && Factor_bitset.concat fb y z = x

(* Partial-isomorphism extension check over ids: pairwise equality
   patterns of the new entry against every entry, then every
   concatenation triple containing the new entry (index -1 below). With
   [exist], preservation is one-directional (Existential's partial
   homomorphism): left patterns must transfer to the right, and a ⊥ on
   the left imposes nothing. *)
let ext_ok st ar ~exist nl nr =
  let len = Arena.len ar in
  let rec pairs i =
    i >= len
    ||
    let el = nl = Arena.fst_at ar i and er = nr = Arena.snd_at ar i in
    (if exist then (not el) || er else el = er) && pairs (i + 1)
  in
  pairs 0
  &&
  let getl t = if t < 0 then nl else Arena.fst_at ar t in
  let getr t = if t < 0 then nr else Arena.snd_at ar t in
  let tri i j k =
    let cl = c3 st.gl.fb (getl i) (getl j) (getl k) in
    if exist then (not cl) || c3 st.gr.fb (getr i) (getr j) (getr k)
    else cl = c3 st.gr.fb (getr i) (getr j) (getr k)
  in
  let ok = ref true in
  let i = ref (-1) in
  while !ok && !i < len do
    let j = ref (-1) in
    while !ok && !j < len do
      if not (tri (-1) !i !j && tri !i (-1) !j && tri !i !j (-1)) then
        ok := false;
      incr j
    done;
    incr i
  done;
  !ok

(* The shared-table key of the arena's current position. *)
let position_key st ar ~nconsts =
  let str fb i = Factor_bitset.extract fb i in
  let pairs =
    List.map
      (fun (l, r) -> (str st.gl.fb l, str st.gr.fb r))
      (Arena.to_list ~from:nconsts ar)
  in
  Position.key ~sigma:st.sigma
    ~left:(Factor_bitset.word st.gl.fb)
    ~right:(Factor_bitset.word st.gr.fb)
    pairs

type memo = Pmemo.t

let memo st = Pmemo.create ~pairbits:st.gbits
let memo_size = Pmemo.size

(* The ∀∃ recursion. [exist] selects Existential's one-sided game (Left
   moves only, directional extension check, no Obs metrics). With
   [cache], every node consults and feeds the shared table. [limit]
   caps the unconstrained reply scan at the first [limit] candidates
   (forced replies are always tried). *)
let run st ~memo ~exist ?cache ~limit ~nodes0 ~budget ~init k0 =
  let s = scratch () in
  let ar = s.ar in
  Arena.reset ar;
  let nconsts = Array.length st.consts_l in
  for i = 0 to nconsts - 1 do
    Arena.push ar st.consts_l.(i) st.consts_r.(i)
  done;
  List.iter
    (fun (l, r) -> Arena.push ar (id_of st.gl.fb l) (id_of st.gr.fb r))
    init;
  let metrics = not exist in
  let rbits = st.gbits - st.lbits in
  let nodes = ref nodes0 in
  let rec wins k =
    incr nodes;
    if metrics then Obs.Metrics.vec_incr m_nodes k;
    if !nodes > budget then raise Budget_exceeded;
    if k = 0 then true
    else
      let n = fill_sorted_pairs s ar ~nconsts ~rbits in
      Pmemo.cached memo k s.keybuf n (fun () -> shared k)
  and shared k =
    match cache with
    | None -> expand k
    | Some c -> (
        let key = position_key st ar ~nconsts in
        match Cache.lookup c key ~k with
        | Some r -> r
        | None ->
            let r = expand k in
            (* limited-mode failures are not genuine Spoiler wins *)
            if r || limit = max_int then Cache.store c key ~k r;
            r)
  and expand k = spoiler false k && (exist || spoiler true k)
  and spoiler swap k =
    let moves = if swap then st.moves_r else st.moves_l in
    let nmoves = Array.length moves in
    let rec go i = i >= nmoves || (try_move moves.(i) && go (i + 1))
    and try_move a = dominated a || survives a
    and dominated a =
      let len = Arena.len ar in
      let rec scan i =
        i < len
        && ((if swap then Arena.snd_at ar i else Arena.fst_at ar i) = a
           || scan (i + 1))
      in
      let d = scan nconsts in
      if d && metrics then Obs.Metrics.incr m_prune_dominated;
      d
    and survives a =
      match forced st ar swap a with
      | -2 ->
          if metrics then Obs.Metrics.incr m_prune_unsat;
          false
      | -1 ->
          let cand = candidates st swap a in
          let m = min limit (Array.length cand) in
          let rec rest i = i < m && (try_reply a cand.(i) || rest (i + 1)) in
          rest 0
      | r ->
          if metrics then Obs.Metrics.incr m_prune_forced;
          try_reply a r
    and try_reply a r =
      let nl, nr = if swap then (r, a) else (a, r) in
      ext_ok st ar ~exist nl nr
      && begin
           Arena.push ar nl nr;
           let v = wins (k - 1) in
           Arena.pop ar;
           v
         end
    in
    go 0
  in
  let result = try Some (wins k0) with Budget_exceeded -> None in
  (result, !nodes)

let solve_general st ~memo ?cache ~limit ~nodes0 ~budget ~init k0 =
  run st ~memo ~exist:false ?cache ~limit ~nodes0 ~budget ~init k0

let solve_existential st ~budget k0 =
  fst
    (run st ~memo:(memo st) ~exist:true ~limit:max_int ~nodes0:0 ~budget
       ~init:[] k0)
