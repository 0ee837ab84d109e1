type key = string

let mirror pairs = List.map (fun (x, y) -> (y, x)) pairs

let encode_general ~sigma ~left ~right pairs =
  let buf = Buffer.create 64 in
  Buffer.add_char buf 'G';
  List.iter (Buffer.add_char buf) sigma;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf left;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf right;
  Buffer.add_char buf '\x00';
  List.iter
    (fun (x, y) ->
      Buffer.add_string buf x;
      Buffer.add_char buf '\x01';
      Buffer.add_string buf y;
      Buffer.add_char buf '\x02')
    pairs;
  Buffer.contents buf

let key ~sigma ~left ~right pairs =
  let c = compare left right in
  if c < 0 then encode_general ~sigma ~left ~right (List.sort compare pairs)
  else if c > 0 then
    encode_general ~sigma ~left:right ~right:left
      (List.sort compare (mirror pairs))
  else
    (* same word on both sides: the mirror map is a genuine symmetry of the
       game, so take the smaller of the two encodings *)
    let a = encode_general ~sigma ~left ~right (List.sort compare pairs) in
    let b =
      encode_general ~sigma ~left ~right (List.sort compare (mirror pairs))
    in
    if a <= b then a else b

let encode_unary ~p ~q pairs =
  let buf = Buffer.create 32 in
  Buffer.add_char buf 'U';
  Buffer.add_string buf (string_of_int p);
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int q);
  List.iter
    (fun (l, r) ->
      Buffer.add_char buf ';';
      Buffer.add_string buf (string_of_int l);
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int r))
    pairs;
  Buffer.contents buf

let unary_key ~p ~q pairs =
  if p < q then encode_unary ~p ~q (List.sort compare pairs)
  else if q < p then
    encode_unary ~p:q ~q:p (List.sort compare (mirror pairs))
  else
    let a = encode_unary ~p ~q (List.sort compare pairs) in
    let b = encode_unary ~p ~q (List.sort compare (mirror pairs)) in
    if a <= b then a else b

let count_char c s =
  let n = ref 0 in
  String.iter (fun ch -> if ch = c then incr n) s;
  !n

let key_depth k =
  if String.length k = 0 then 0
  else
    match k.[0] with
    | 'U' -> count_char ';' k
    | 'G' -> count_char '\x02' k
    | _ -> 0
