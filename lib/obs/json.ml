type t = Null | Int of int | String of string | List of t list | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_string = function
  | Null -> "null"
  | Int i -> string_of_int i
  | String s -> "\"" ^ escape s ^ "\""
  | List vs -> "[" ^ String.concat "," (List.map to_string vs) ^ "]"
  | Obj kvs ->
      let member (k, v) = to_string (String k) ^ ":" ^ to_string v in
      "{" ^ String.concat "," (List.map member kvs) ^ "}"

let field k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let next () =
    if !pos >= n then bad "unexpected end of input";
    incr pos;
    s.[!pos - 1]
  in
  let looking_at c = !pos < n && s.[!pos] = c in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    let g = next () in
    if g <> c then bad "expected '%c', got '%c' at offset %d" c g (!pos - 1)
  in
  let hex4 () =
    let h = String.init 4 (fun _ -> next ()) in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if not (String.for_all hex h) then bad "bad \\u escape \"\\u%s\"" h;
    int_of_string ("0x" ^ h)
  in
  (* One \uXXXX escape as a code point: surrogate pairs combine into
     their supplementary code point, lone surrogates are errors. *)
  let unicode_escape () =
    let code = hex4 () in
    if code >= 0xD800 && code <= 0xDBFF then begin
      if next () <> '\\' || next () <> 'u' then
        bad "high surrogate \\u%04x without a low surrogate" code;
      let low = hex4 () in
      if low < 0xDC00 || low > 0xDFFF then
        bad "high surrogate \\u%04x followed by \\u%04x" code low;
      0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00))
    end
    else if code >= 0xDC00 && code <= 0xDFFF then bad "lone low surrogate \\u%04x" code
    else code
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' ->
          (match next () with
          | ('"' | '\\' | '/') as c -> Buffer.add_char buf c
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (unicode_escape ()))
          | c -> bad "bad escape '\\%c'" c);
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let int () =
    let start = !pos in
    if looking_at '-' then incr pos;
    let digits = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = digits then bad "expected a value at offset %d" start;
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some i -> i
    | None -> bad "integer out of range at offset %d" start
  in
  let rec value () =
    skip_ws ();
    if looking_at '"' then String (string ())
    else if looking_at '[' then List (seq ']' value)
    else if looking_at '{' then Obj (seq '}' member)
    else if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
      pos := !pos + 4;
      Null
    end
    else Int (int ())
  and member () =
    skip_ws ();
    let k = string () in
    skip_ws ();
    expect ':';
    (k, value ())
  and seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    incr pos;
    skip_ws ();
    if looking_at close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match next () with
        | ',' -> go acc
        | c when c = close -> List.rev acc
        | c -> bad "expected ',' or '%c', got '%c' at offset %d" close c (!pos - 1)
      in
      go []
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then bad "trailing bytes at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m
  | exception Stack_overflow -> Error "nesting too deep"
