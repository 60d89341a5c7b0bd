(* The one JSON value type, writer and reader. Every emitter (trace
   export, event log, metrics, daemon stats, bench results) builds a [t]
   and prints it here; every reader (bench results merge, regression
   gate, tests) parses here. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- writer -------------------------------------------------------------- *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* JSON has no nan or infinity, so non-finite values print as 0. *)
let float_repr v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf (String k);
        Buffer.add_char buf ':';
        to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ---- reader -------------------------------------------------------------- *)

exception Syntax of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Syntax (!pos, msg)) in
  let at c = !pos < n && s.[!pos] = c in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "invalid literal"
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if h = "" || not (String.for_all hex h) then fail "invalid \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        (match c with
         | '"' | '\\' | '/' -> Buffer.add_char buf c
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           let u = hex4 () in
           let cp =
             if u >= 0xD800 && u <= 0xDBFF then begin
               if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
                 fail "unpaired surrogate";
               pos := !pos + 2;
               let lo = hex4 () in
               if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
               0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
             end
             else if u >= 0xDC00 && u <= 0xDFFF then fail "unpaired surrogate"
             else u
           in
           Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
         | _ ->
           decr pos;
           fail "invalid escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
      if !pos = d0 then fail "invalid number"
    in
    if at '-' then incr pos;
    if at '0' then incr pos else digits ();
    let frac = at '.' in
    if frac then begin
      incr pos;
      digits ()
    end;
    let exp = at 'e' || at 'E' in
    if exp then begin
      incr pos;
      if at '+' || at '-' then incr pos;
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    match (frac || exp, int_of_string_opt lit) with
    | false, Some i -> Int i
    | _ -> Float (float_of_string lit)
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip_ws ();
      if at '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec members acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let acc = (k, value ()) :: acc in
          skip_ws ();
          if at ',' then begin
            incr pos;
            members acc
          end
          else begin
            expect '}';
            Obj (List.rev acc)
          end
        in
        members []
    | '[' ->
      incr pos;
      skip_ws ();
      if at ']' then begin
        incr pos;
        List []
      end
      else
        let rec elements acc =
          let acc = value () :: acc in
          skip_ws ();
          if at ',' then begin
            incr pos;
            elements acc
          end
          else begin
            expect ']';
            List (List.rev acc)
          end
        in
        elements []
    | '"' -> String (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Syntax (at, msg) -> Error (Printf.sprintf "%s at byte %d" msg at)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
