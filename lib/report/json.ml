(* A minimal self-contained JSON value type with an emitter and a
   strict recursive-descent parser, with no external dependency.  It
   writes and reads the committed BENCH_*.json artifacts, the golden
   JSONL traces and their reports, and the metrics and fleet summaries.
   The parser accepts exactly RFC 8259's grammar: a number is
   [-]int[.frac][e[+-]digits] with no leading zero, a \u escape is four
   hex digits, and a number too large for a float is an error at the
   offset where it starts, so every accepted document re-emits
   unchanged. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- emitting --------------------------------------------------------- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no representation for non-finite numbers; `%.12g` would
   print `nan`/`inf` and corrupt the document, so those emit `null`. *)
let number_to_string f =
  match Float.classify_float f with
  | Float.FP_nan | Float.FP_infinite -> "null"
  | _ ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.12g" f

let rec write buf indent (v : t) =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape_string s);
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        write buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad (indent + 2));
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape_string k);
        Buffer.add_string buf "\": ";
        write buf (indent + 2) item)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (pad indent);
    Buffer.add_char buf '}'

let to_string (v : t) =
  let buf = Buffer.create 256 in
  write buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Single-line emission, for JSONL sinks (one record per line). *)
let rec write_compact buf (v : t) =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape_string s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write_compact buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape_string k);
        Buffer.add_string buf "\":";
        write_compact buf item)
      fields;
    Buffer.add_char buf '}'

let to_compact_string (v : t) =
  let buf = Buffer.create 128 in
  write_compact buf v;
  Buffer.contents buf

let to_file path (v : t) =
  let oc = open_out path in
  output_string oc (to_string v);
  close_out oc

(* --- parsing ---------------------------------------------------------- *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  if
    c.pos + String.length word <= String.length c.text
    && String.equal (String.sub c.text c.pos (String.length word)) word
  then begin
    c.pos <- c.pos + String.length word;
    value
  end
  else fail c ("expected " ^ word)

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some 'n' -> advance c; Buffer.add_char buf '\n'; loop ()
      | Some 'r' -> advance c; Buffer.add_char buf '\r'; loop ()
      | Some 't' -> advance c; Buffer.add_char buf '\t'; loop ()
      | Some 'b' -> advance c; Buffer.add_char buf '\b'; loop ()
      | Some 'f' -> advance c; Buffer.add_char buf '\012'; loop ()
      | Some '"' -> advance c; Buffer.add_char buf '"'; loop ()
      | Some '\\' -> advance c; Buffer.add_char buf '\\'; loop ()
      | Some '/' -> advance c; Buffer.add_char buf '/'; loop ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.text then fail c "short \\u escape";
        let hex = String.sub c.text c.pos 4 in
        let code =
          String.fold_left
            (fun acc ch ->
              match ch with
              | '0' .. '9' -> (acc * 16) + Char.code ch - Char.code '0'
              | 'a' .. 'f' -> (acc * 16) + Char.code ch - Char.code 'a' + 10
              | 'A' .. 'F' -> (acc * 16) + Char.code ch - Char.code 'A' + 10
              | _ -> fail c ("bad \\u escape: " ^ hex))
            0 hex
        in
        c.pos <- c.pos + 4;
        (* Our emitter only writes \u for control chars; anything in the
           Latin-1 range is preserved, the rest degrades to '?'. *)
        Buffer.add_char buf (if code < 256 then Char.chr code else '?');
        loop ()
      | _ -> fail c "bad escape")
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      loop ()
  in
  loop ();
  Buffer.contents buf

(* JSON's number grammar: an optional minus, then 0 or a digit string
   without a leading zero, then optionally a fraction and an exponent,
   each with at least one digit. *)
let parse_number c =
  let start = c.pos and len = String.length c.text in
  (* NUL past the end: it matches none of the cases below. *)
  let cur () = if c.pos < len then c.text.[c.pos] else '\000' in
  let digits () =
    (match cur () with '0' .. '9' -> () | _ -> fail c "expected a digit");
    while (match cur () with '0' .. '9' -> true | _ -> false) do
      advance c
    done
  in
  if cur () = '-' then advance c;
  if cur () = '0' then advance c else digits ();
  if cur () = '.' then begin
    advance c;
    digits ()
  end;
  (match cur () with
  | 'e' | 'E' ->
    advance c;
    (match cur () with '+' | '-' -> advance c | _ -> ());
    digits ()
  | _ -> ());
  let s = String.sub c.text start (c.pos - start) in
  let f = float_of_string s in
  if Float.is_finite f then Num f
  else begin
    c.pos <- start;
    fail c ("number out of range " ^ s)
  end

let rec parse_value c : t =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin advance c; Obj [] end
    else begin
      let rec fields acc =
        skip_ws c;
        expect c '"';
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((k, v) :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin advance c; List [] end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '"' ->
    advance c;
    Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let of_string s : t =
  let c = { text = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v

let of_file path : t =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s

(* --- accessors (for tests and downstream tooling) --------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
