type expr =
  | Extract of Regex_formula.t
  | Union of expr * expr
  | Project of string list * expr
  | Join of expr * expr
  | Diff of expr * expr
  | Select_eq of string * string * expr
  | Select_rel of Selectable.t * string list * expr

let rec schema = function
  | Extract f ->
      if not (Regex_formula.is_functional f) then
        invalid_arg "Algebra.schema: regex formula is not functional";
      Regex_formula.vars f
  | Union (a, b) | Diff (a, b) ->
      let sa = schema a and sb = schema b in
      if sa <> sb then invalid_arg "Algebra.schema: union/difference schema mismatch";
      sa
  | Project (vars, e) ->
      let s = schema e in
      List.iter
        (fun v ->
          if not (List.mem v s) then invalid_arg "Algebra.schema: projection of unknown variable")
        vars;
      List.sort_uniq String.compare vars
  | Join (a, b) -> List.sort_uniq String.compare (schema a @ schema b)
  | Select_eq (x, y, e) ->
      let s = schema e in
      if not (List.mem x s && List.mem y s) then
        invalid_arg "Algebra.schema: selection on unknown variable";
      s
  | Select_rel (r, vars, e) ->
      let s = schema e in
      if List.length vars <> r.Selectable.arity then
        invalid_arg "Algebra.schema: relation arity mismatch";
      List.iter
        (fun v ->
          if not (List.mem v s) then invalid_arg "Algebra.schema: selection on unknown variable")
        vars;
      s

let well_formed e = try Ok (schema e) with Invalid_argument msg -> Error msg

let rec is_core = function
  | Extract _ -> true
  | Union (a, b) | Join (a, b) -> is_core a && is_core b
  | Project (_, e) | Select_eq (_, _, e) -> is_core e
  | Diff _ | Select_rel _ -> false

let rec is_generalized_core = function
  | Extract _ -> true
  | Union (a, b) | Join (a, b) | Diff (a, b) -> is_generalized_core a && is_generalized_core b
  | Project (_, e) | Select_eq (_, _, e) -> is_generalized_core e
  | Select_rel _ -> false

let rec eval e doc =
  match e with
  | Extract f ->
      if not (Regex_formula.is_functional f) then
        invalid_arg "Algebra.eval: regex formula is not functional";
      Vset_automaton.eval (Vset_automaton.of_regex_formula f) doc
  | Union (a, b) -> Relation.union (eval a doc) (eval b doc)
  | Project (vars, a) -> Relation.project vars (eval a doc)
  | Join (a, b) -> Relation.natural_join (eval a doc) (eval b doc)
  | Diff (a, b) -> Relation.diff (eval a doc) (eval b doc)
  | Select_eq (x, y, a) -> Relation.select_string_eq ~doc x y (eval a doc)
  | Select_rel (r, vars, a) -> Relation.select_word_rel ~doc (Selectable.holds r) vars (eval a doc)

let matches_anywhere formula doc =
  let wild = Regex_formula.of_regex (Regex_engine.Regex.all_words (Words.Word.alphabet doc)) in
  eval (Extract (Regex_formula.Cat (wild, Regex_formula.Cat (formula, wild)))) doc

let define_language e doc = not (Relation.is_empty (eval e doc))
let selected_words e ~vars doc = Relation.to_word_tuples ~doc ~vars (eval e doc)

let rec pp ppf =
  let open Format in
  function
  | Extract f -> fprintf ppf "⟦%a⟧" Regex_formula.pp f
  | Union (a, b) -> fprintf ppf "(%a ∪ %a)" pp a pp b
  | Project (vars, e) -> fprintf ppf "π_{%s}%a" (String.concat "," vars) pp e
  | Join (a, b) -> fprintf ppf "(%a ⋈ %a)" pp a pp b
  | Diff (a, b) -> fprintf ppf "(%a ∖ %a)" pp a pp b
  | Select_eq (x, y, e) -> fprintf ppf "ζ^=_{%s,%s}%a" x y pp e
  | Select_rel (r, vars, e) ->
      fprintf ppf "ζ^{%a}_{%s}%a" Selectable.pp r (String.concat "," vars) pp e
