(* Position: an array of k optional pebble pairs. Moving pebble i replaces
   its pair; the partial-isomorphism check runs over the placed pairs plus
   the constant entries. *)

exception Budget_exceeded

let entries_of_position consts position =
  Array.fold_left
    (fun acc -> function
      | Some (a, b) -> (Some a, Some b) :: acc
      | None -> acc)
    consts position

let decide ?(budget = 50_000_000) ~pebbles ~rounds cfg =
  if pebbles <= 0 then invalid_arg "Pebble.decide: need at least one pebble";
  let consts = Game.constant_entries cfg in
  let left_moves = Game.spoiler_moves cfg Game.Left in
  let right_moves = Game.spoiler_moves cfg Game.Right in
  let memo = Hashtbl.create 1024 in
  let nodes = ref 0 in
  let rec wins position k =
    incr nodes;
    if !nodes > budget then raise Budget_exceeded;
    if k = 0 then true
    else
      let key = (k, List.sort compare (Array.to_list position)) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
          let try_move i side a =
            (* Spoiler puts pebble i on [a]; Duplicator may answer with any
               element keeping the new position partially isomorphic. *)
            let others =
              entries_of_position consts
                (Array.mapi (fun j p -> if j = i then None else p) position)
            in
            Seq.exists
              (fun r ->
                let position' = Array.copy position in
                position'.(i) <- Some (Game.pair side a r);
                wins position' (k - 1))
              (Game.replies cfg others side a)
          in
          let spoiler_has_win =
            List.exists
              (fun side ->
                let ms = match side with Game.Left -> left_moves | Game.Right -> right_moves in
                List.exists
                  (fun a ->
                    (* dominated moves: element already pebbled on that side *)
                    let already =
                      Array.exists
                        (function
                          | Some (x, y) -> (match side with Game.Left -> x = a | Game.Right -> y = a)
                          | None -> false)
                        position
                    in
                    (* Spoiler also chooses which pebble to move *)
                    (not already)
                    && List.exists
                         (fun i -> not (try_move i side a))
                         (List.init pebbles Fun.id))
                  ms)
              [ Game.Left; Game.Right ]
          in
          let result = not spoiler_has_win in
          Hashtbl.replace memo key result;
          result
  in
  if not (Game.base_partial_iso cfg) then Game.Not_equiv
  else
    try if wins (Array.make pebbles None) rounds then Game.Equiv else Game.Not_equiv
    with Budget_exceeded -> Game.Unknown

let equiv ?sigma ?budget ~pebbles ~rounds w v =
  decide ?budget ~pebbles ~rounds (Game.make ?sigma w v)

let compare_with_unrestricted ?budget ~pebbles ~rounds w v =
  let cfg = Game.make w v in
  (decide ?budget ~pebbles ~rounds cfg, Game.decide ?budget cfg rounds)
