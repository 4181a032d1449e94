type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The one float rule: the shortest of %.15g/%.16g/%.17g that reads back
   to the same bits, kept distinct from an integer by a ".0" suffix. *)
let float_text f =
  if not (Float.is_finite f) then invalid_arg "Util.Json: non-finite float";
  let same s = Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float f) in
  let s = Printf.sprintf "%.15g" f in
  let s = if same s then s else Printf.sprintf "%.16g" f in
  let s = if same s then s else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let sequence b first last add l =
  Buffer.add_char b first;
  List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; add x) l;
  Buffer.add_char b last

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_text f)
  | Str s -> add_string b s
  | List l -> sequence b '[' ']' (to_buffer b) l
  | Obj fields ->
    sequence b '{' '}' (fun (k, v) -> add_string b k; Buffer.add_char b ':'; to_buffer b v) fields

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let output_line oc v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.add_char b '\n';
  Buffer.output_buffer oc b

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    incr pos;
    s.[!pos - 1]
  in
  let rec skip_ws () =
    match peek () with Some (' ' | '\t' | '\n' | '\r') -> incr pos; skip_ws () | _ -> ()
  in
  let eat c = if peek () = Some c then (incr pos; true) else false in
  let digits () =
    let start = !pos in
    while match peek () with Some '0' .. '9' -> true | _ -> false do incr pos done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    ignore (eat '-');
    if not (eat '0') then digits ();
    let frac = eat '.' in
    if frac then digits ();
    let exp = eat 'e' || eat 'E' in
    if exp then (ignore (eat '+' || eat '-'); digits ());
    let text = String.sub s start (!pos - start) in
    match if frac || exp then None else int_of_string_opt text with
    | Some i -> Int i
    | None ->
      let f = float_of_string text in
      if Float.is_finite f then Float f else fail "number out of range"
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match next () with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    !v
  in
  (* A \u escape, joining a UTF-16 surrogate pair into one code point. *)
  let code_point () =
    let u = hex4 () in
    if u >= 0xDC00 && u <= 0xDFFF then fail "lone surrogate";
    if u < 0xD800 || u > 0xDBFF then Uchar.of_int u
    else begin
      if next () <> '\\' || next () <> 'u' then fail "lone surrogate";
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "lone surrogate";
      Uchar.of_int (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
    end
  in
  let string_lit () =
    if not (eat '"') then fail "expected a string";
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
         | ('"' | '\\' | '/') as c -> Buffer.add_char b c
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' -> Buffer.add_utf_8_uchar b (code_point ())
         | _ -> fail "unknown escape");
        go ()
      | c when Char.code c < 0x20 -> fail "raw control byte in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then (pos := !pos + l; v)
    else fail "unexpected input"
  in
  (* The items of an object or array, after its opening bracket. *)
  let rec items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    skip_ws ();
    if eat close then []
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match next () with
        | ',' -> skip_ws (); go acc
        | c when c = close -> List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  and value () =
    skip_ws ();
    match peek () with
    | Some '{' -> incr pos; Obj (items '}' field)
    | Some '[' -> incr pos; List (items ']' value)
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some _ -> fail "unexpected input"
    | None -> fail "unexpected end of input"
  and field () =
    let k = string_lit () in
    skip_ws ();
    if not (eat ':') then fail "expected ':'";
    (k, value ())
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None
let number = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
