type label = Read of char | Open of string | Close of string
type kind = Step | Eps | Opens | Closes

(* Edges grouped by source: those of q are [first.(q) .. first.(q+1) - 1];
   [arg] is the letter's code for a Step, the variable's index in [vars]
   for Opens/Closes. *)
type edges = { first : int array; kind : kind array; arg : int array; target : int array }

type t = {
  states : int;
  start : int;
  accepting : int list;
  transitions : (int * label * int) list;
  vars : string list;
  final : bool array;
  edges : edges;
}

module Itbl = Hashtbl.Make (Int)

(* the empty variable name encodes ε-moves and is not a variable *)
let op_var = function Open x | Close x -> if x = "" then None else Some x | Read _ -> None

let compile ~states ~start ~accepting ~transitions ~vars =
  let first = Array.make (states + 1) 0 in
  List.iter (fun (q, _, _) -> first.(q + 1) <- first.(q + 1) + 1) transitions;
  for q = 1 to states do
    first.(q) <- first.(q) + first.(q - 1)
  done;
  let m = List.length transitions and next = Array.copy first in
  let kind = Array.make m Eps and arg = Array.make m 0 and target = Array.make m 0 in
  let index x = List.length (List.filter (fun y -> y < x) vars) in
  List.iter
    (fun (q, l, q') ->
      let e = next.(q) in
      next.(q) <- e + 1;
      target.(e) <- q';
      match l with
      | Read c -> (kind.(e) <- Step; arg.(e) <- Char.code c)
      | Open "" | Close "" -> ()
      | Open x -> (kind.(e) <- Opens; arg.(e) <- index x)
      | Close x -> (kind.(e) <- Closes; arg.(e) <- index x))
    transitions;
  let final = Array.make states false in
  List.iter (fun q -> final.(q) <- true) accepting;
  { states; start; accepting; transitions; vars; final; edges = { first; kind; arg; target } }

let make ~states ~start ~accepting ~transitions =
  let check_state q =
    if q < 0 || q >= states then invalid_arg "Vset_automaton.make: state out of range"
  in
  check_state start;
  List.iter check_state accepting;
  List.iter
    (fun (q, _, q') ->
      check_state q;
      check_state q')
    transitions;
  let vars = List.sort_uniq String.compare (List.filter_map (fun (_, l, _) -> op_var l) transitions) in
  compile ~states ~start ~accepting ~transitions ~vars

let states t = t.states
let start t = t.start
let accepting t = t.accepting
let vars t = t.vars
let transitions t = t.transitions

(* Thompson construction with fragments (entry, exit). *)
let of_regex_formula formula =
  let transitions = ref [] and count = ref 0 in
  let fresh () =
    let q = !count in
    incr count;
    q
  in
  let add q l q' = transitions := (q, l, q') :: !transitions in
  (* Build a fragment and return (entry, exit). Empty is represented by a
     fragment with no path, Eps by entry = exit. *)
  let rec build (f : Regex_formula.t) =
    match f with
    | Regex_formula.Empty ->
        let i = fresh () and o = fresh () in
        (i, o) (* no transition: dead *)
    | Regex_formula.Eps ->
        let i = fresh () in
        (i, i)
    | Regex_formula.Char c ->
        let i = fresh () and o = fresh () in
        add i (Read c) o;
        (i, o)
    | Regex_formula.Alt (a, b) ->
        let i = fresh () and o = fresh () in
        let ia, oa = build a and ib, ob = build b in
        (* ε-moves are encoded as Open "" — the empty variable name is
           reserved (no parser accepts it) and treated as ε everywhere *)
        add i (Open "") ia;
        add i (Open "") ib;
        add oa (Open "") o;
        add ob (Open "") o;
        (i, o)
    | Regex_formula.Cat (a, b) ->
        let ia, oa = build a and ib, ob = build b in
        add oa (Open "") ib;
        (ia, ob)
    | Regex_formula.Star a ->
        let i = fresh () in
        let ia, oa = build a in
        add i (Open "") ia;
        add oa (Open "") i;
        (i, i)
    | Regex_formula.Bind (x, a) ->
        let i = fresh () and o = fresh () in
        let ia, oa = build a in
        add i (Open x) ia;
        add oa (Close x) o;
        (i, o)
  in
  let entry, exit_ = build formula in
  compile ~states:!count ~start:entry ~accepting:[ exit_ ] ~transitions:!transitions
    ~vars:(Regex_formula.vars formula)

(* Depth-first search over configurations (state, position, node), where
   [node] names the run's variable operations so far in a hash-consed trie;
   each configuration is visited once, which also cuts ε-cycles. The
   visited set is a bitset over [(node · (n+1) + pos) · states + state]. *)
let eval_runs t doc =
  let n = String.length doc and g = t.edges in
  let per_node = (n + 1) * t.states and nops = 2 * List.length t.vars in
  (* trie node u > 0 extends prefix [trie.(3u)] by operation [trie.(3u+1)]
     (2x for ⊢x, 2x+1 for x⊣) at position [trie.(3u+2)]; node 0 is empty *)
  let trie = ref (Array.make 96 0) and nodes = ref 1 in
  let child = Itbl.create 64 in
  let seen = ref (Bytes.make (per_node + 1) '\000') in
  let stack = ref (Array.make 64 0) and top = ref 0 in
  let grow a used = if used >= Array.length !a then a := Array.append !a !a in
  let push state pos node =
    let c = (((node * (n + 1)) + pos) * t.states) + state in
    let byte = Char.code (Bytes.get !seen (c lsr 3)) and bit = 1 lsl (c land 7) in
    if byte land bit = 0 then begin
      Bytes.set !seen (c lsr 3) (Char.chr (byte lor bit));
      grow stack (!top + 2);
      !stack.(!top) <- state;
      !stack.(!top + 1) <- pos;
      !stack.(!top + 2) <- node;
      top := !top + 3
    end
  in
  let extend node op pos =
    let key = (((node * nops) + op) * (n + 1)) + pos in
    match Itbl.find_opt child key with
    | Some u -> u
    | None ->
        let u = !nodes in
        incr nodes;
        grow trie ((3 * u) + 2);
        !trie.(3 * u) <- node;
        !trie.((3 * u) + 1) <- op;
        !trie.((3 * u) + 2) <- pos;
        let cap = Bytes.length !seen in
        if ((u + 1) * per_node / 8) + 1 > cap then begin
          let wider = Bytes.make (2 * cap) '\000' in
          Bytes.blit !seen 0 wider 0 cap;
          seen := wider
        end;
        Itbl.add child key u;
        u
  in
  (* the last operation on variable x along node's path, -1 if none *)
  let rec last_op node x =
    if node = 0 then -1
    else
      let op = !trie.((3 * node) + 1) in
      if op lsr 1 = x then op else last_op !trie.(3 * node) x
  in
  let runs = ref [] in
  push t.start 0 0;
  while !top > 0 do
    top := !top - 3;
    let state = !stack.(!top) and pos = !stack.(!top + 1) and node = !stack.(!top + 2) in
    if pos = n && t.final.(state) then runs := node :: !runs;
    for e = g.first.(state) to g.first.(state + 1) - 1 do
      let q' = g.target.(e) and x = g.arg.(e) in
      match g.kind.(e) with
      | Eps -> push q' pos node
      | Step -> if pos < n && Char.code doc.[pos] = x then push q' (pos + 1) node
      | Opens -> if last_op node x = -1 then push q' pos (extend node (2 * x) pos)
      | Closes -> if last_op node x = 2 * x then push q' pos (extend node ((2 * x) + 1) pos)
    done
  done;
  (* a run's row: spans read off its trie path; runs that do not open and
     close every variable give none *)
  List.filter_map
    (fun node ->
      let left = Array.make (nops / 2) 0 and right = Array.make (nops / 2) 0 in
      let rec walk u ops =
        if u = 0 then ops
        else
          let op = !trie.((3 * u) + 1) in
          (if op land 1 = 0 then left else right).(op lsr 1) <- !trie.((3 * u) + 2);
          walk !trie.(3 * u) (ops + 1)
      in
      if walk node 0 <> nops then None
      else Some (List.init (nops / 2) (fun x -> Span.make left.(x) right.(x))))
    !runs

let eval t doc = Relation.make ~schema:t.vars (eval_runs t doc)
let run_count t doc = List.length (eval_runs t doc)

let is_functional t =
  (* abstract statuses: per variable Unseen/Opened/Closed (no positions);
     reachability over (state, abstract status); accepting states reached
     with a non-fully-closed status witness non-functionality, as do Open
     on an opened/closed variable etc. Since eval simply drops incomplete
     runs, we define functionality as: every accepting abstract
     configuration closes all variables. *)
  let module S = Set.Make (struct
    type nonrec t = int * (string * int) list

    let compare = compare
  end) in
  let init = List.map (fun x -> (x, 0)) t.vars in
  let step (state, st) =
    List.filter_map
      (fun (q, l, q') ->
        if q <> state then None
        else
          match l with
          | Read _ -> Some (q', st)
          | Open "" -> Some (q', st)
          | Open x -> (
              match List.assoc x st with
              | 0 -> Some (q', (x, 1) :: List.remove_assoc x st |> List.sort compare)
              | _ -> None)
          | Close x -> (
              match List.assoc x st with
              | 1 -> Some (q', (x, 2) :: List.remove_assoc x st |> List.sort compare)
              | _ -> None))
      t.transitions
  in
  let rec explore frontier seen =
    match frontier with
    | [] -> seen
    | c :: rest ->
        if S.mem c seen then explore rest seen
        else explore (step c @ rest) (S.add c seen)
  in
  let seen = explore [ (t.start, List.sort compare init) ] S.empty in
  S.for_all
    (fun (state, st) ->
      (not (List.mem state t.accepting)) || List.for_all (fun (_, s) -> s = 2) st)
    seen
