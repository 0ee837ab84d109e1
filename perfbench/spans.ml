(* In-memory span recorder for the traced run. A span wraps one call into
   a library layer; spans of one item share the item id and record the
   span that encloses them. Self time (a span's duration minus its
   children's) is summed per span name as the spans close, and the raw
   spans are written as a Chrome trace when the benchmark exits. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  item : int;
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : (int * string) list;
  mutable item : int;
  self : (string, float) Hashtbl.t;
  count : (string, int) Hashtbl.t;
}

let create () =
  {
    spans = [];
    next = 0;
    stack = [];
    item = -1;
    self = Hashtbl.create 16;
    count = Hashtbl.create 16;
  }

let set_item t i = t.item <- i

let bump tbl k d =
  Hashtbl.replace tbl k (d +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with (p, _) :: _ -> p | [] -> -1 in
  let outer = t.stack in
  t.stack <- (id, name) :: outer;
  let t0 = now () in
  let close () =
    let t1 = now () in
    t.stack <- outer;
    let d = t1 -. t0 in
    bump t.self name d;
    (match outer with (_, pname) :: _ -> bump t.self pname (-.d) | [] -> ());
    Hashtbl.replace t.count name
      (1 + Option.value (Hashtbl.find_opt t.count name) ~default:0);
    t.spans <- { id; parent; item = t.item; name; t0; t1 } :: t.spans
  in
  match f () with
  | r ->
      close ();
      r
  | exception e ->
      close ();
      raise e

(* Summed self time of every span called [name], in seconds. *)
let self t name = Option.value (Hashtbl.find_opt t.self name) ~default:0.
let count t name = Option.value (Hashtbl.find_opt t.count name) ~default:0
let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.self [] |> List.sort compare

let write t path =
  let module J = Obs.Jsonw in
  J.to_file path (fun w ->
      J.obj w (fun w ->
          J.field w "traceEvents" (fun w ->
              J.arr w (fun w ->
                  List.iter
                    (fun s ->
                      J.obj w (fun w ->
                          J.field_string w "name" s.name;
                          J.field_string w "ph" "X";
                          J.field_float ~prec:1 w "ts" (s.t0 *. 1e6);
                          J.field_float ~prec:1 w "dur" ((s.t1 -. s.t0) *. 1e6);
                          J.field_int w "pid" 1;
                          J.field_int w "tid" 1;
                          J.field w "args" (fun w ->
                              J.obj w (fun w ->
                                  J.field_int w "id" s.id;
                                  J.field_int w "parent" s.parent;
                                  J.field_int w "item" s.item))))
                    (List.rev t.spans)))))
