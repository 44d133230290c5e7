type t =
  | Element of string * (string * string) list * t list
  | Text of string
  | Cdata of string
  | Comment of string

let elt ?(attrs = []) tag children = Element (tag, attrs, children)
let text s = Text s
let leaf ?attrs tag s = elt ?attrs tag [ Text s ]

let tag = function Element (n, _, _) -> Some n | Text _ | Cdata _ | Comment _ -> None

let attr name = function
  | Element (_, attrs, _) -> List.assoc_opt name attrs
  | Text _ | Cdata _ | Comment _ -> None

let attr_exn name x =
  match attr name x with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Xml.attr_exn: no attribute %S" name)

let children = function
  | Element (_, _, cs) -> cs
  | Text _ | Cdata _ | Comment _ -> []

let child name x =
  List.find_opt
    (function Element (n, _, _) -> String.equal n name | _ -> false)
    (children x)

let child_exn name x =
  match child name x with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Xml.child_exn: no child %S" name)

let childs name x =
  List.filter
    (function Element (n, _, _) -> String.equal n name | _ -> false)
    (children x)

let rec text_content = function
  | Text s | Cdata s -> s
  | Comment _ -> ""
  | Element (_, _, cs) -> String.concat "" (List.map text_content cs)

let rec path names x =
  match names with
  | [] -> Some x
  | n :: rest -> ( match child n x with None -> None | Some c -> path rest c)

let escape_with escape_quotes s =
  let special = function
    | '<' | '>' | '&' | '"' | '\'' -> true
    | _ -> false
  in
  if not (String.exists special s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '<' -> Buffer.add_string b "&lt;"
        | '>' -> Buffer.add_string b "&gt;"
        | '&' -> Buffer.add_string b "&amp;"
        | '"' when escape_quotes -> Buffer.add_string b "&quot;"
        | '\'' when escape_quotes -> Buffer.add_string b "&apos;"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let escape_text s = escape_with false s
let escape_attr s = escape_with true s

let add_attrs b attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b k;
      Buffer.add_string b "=\"";
      Buffer.add_string b (escape_attr v);
      Buffer.add_char b '"')
    attrs

let rec add_compact b = function
  | Text s -> Buffer.add_string b (escape_text s)
  | Cdata s ->
      Buffer.add_string b "<![CDATA[";
      Buffer.add_string b s;
      Buffer.add_string b "]]>"
  | Comment s ->
      Buffer.add_string b "<!--";
      Buffer.add_string b s;
      Buffer.add_string b "-->"
  | Element (tag, attrs, cs) ->
      Buffer.add_char b '<';
      Buffer.add_string b tag;
      add_attrs b attrs;
      if cs = [] then Buffer.add_string b "/>"
      else begin
        Buffer.add_char b '>';
        List.iter (add_compact b) cs;
        Buffer.add_string b "</";
        Buffer.add_string b tag;
        Buffer.add_char b '>'
      end

let decl_string = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"

let to_string ?(decl = false) x =
  let b = Buffer.create 256 in
  if decl then Buffer.add_string b decl_string;
  add_compact b x;
  Buffer.contents b

let to_string_pretty ?(decl = false) ?(indent = 2) x =
  let b = Buffer.create 256 in
  if decl then begin
    Buffer.add_string b decl_string;
    Buffer.add_char b '\n'
  end;
  let pad depth = Buffer.add_string b (String.make (depth * indent) ' ') in
  (* An element renders inline when all its children are character data. *)
  let inline_children cs =
    List.for_all (function Text _ | Cdata _ -> true | _ -> false) cs
  in
  let rec go depth node =
    match node with
    | Text s ->
        pad depth;
        Buffer.add_string b (escape_text s);
        Buffer.add_char b '\n'
    | Cdata s ->
        pad depth;
        Buffer.add_string b "<![CDATA[";
        Buffer.add_string b s;
        Buffer.add_string b "]]>\n"
    | Comment s ->
        pad depth;
        Buffer.add_string b "<!--";
        Buffer.add_string b s;
        Buffer.add_string b "-->\n"
    | Element (tag, attrs, []) ->
        pad depth;
        Buffer.add_char b '<';
        Buffer.add_string b tag;
        add_attrs b attrs;
        Buffer.add_string b "/>\n"
    | Element (tag, attrs, cs) when inline_children cs ->
        pad depth;
        Buffer.add_char b '<';
        Buffer.add_string b tag;
        add_attrs b attrs;
        Buffer.add_char b '>';
        List.iter (add_compact b) cs;
        Buffer.add_string b "</";
        Buffer.add_string b tag;
        Buffer.add_string b ">\n"
    | Element (tag, attrs, cs) ->
        pad depth;
        Buffer.add_char b '<';
        Buffer.add_string b tag;
        add_attrs b attrs;
        Buffer.add_string b ">\n";
        List.iter (go (depth + 1)) cs;
        pad depth;
        Buffer.add_string b "</";
        Buffer.add_string b tag;
        Buffer.add_string b ">\n"
  in
  go 0 x;
  Buffer.contents b

let size_bytes x = String.length (to_string x)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type error = { position : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "XML parse error at byte %d: %s" e.position e.message

exception Err of error

type state = { src : string; mutable pos : int }

let fail st message = raise (Err { position = st.pos; message })
let eof st = st.pos >= String.length st.src
let peek_char st = if eof st then '\000' else st.src.[st.pos]
let advance st = st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

let skip_ws st =
  while
    (not (eof st))
    && match peek_char st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let is_name_start = function
  | 'A' .. 'Z' | 'a' .. 'z' | '_' | ':' -> true
  | _ -> false

let is_name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | ':' | '-' | '.' -> true
  | _ -> false

let parse_name st =
  if not (is_name_start (peek_char st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek_char st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let parse_reference st =
  (* Called on '&'. *)
  advance st;
  let start = st.pos in
  while (not (eof st)) && peek_char st <> ';' do
    advance st
  done;
  if eof st then fail st "unterminated entity reference";
  let name = String.sub st.src start (st.pos - start) in
  advance st;
  match name with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
      if String.length name > 1 && name.[0] = '#' then begin
        let code =
          try
            if name.[1] = 'x' || name.[1] = 'X' then
              int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
            else int_of_string (String.sub name 1 (String.length name - 1))
          with Failure _ -> fail st "bad character reference"
        in
        if code < 0 || code > 0x10FFFF then fail st "character out of range";
        (* Encode as UTF-8. *)
        let b = Buffer.create 4 in
        if code < 0x80 then Buffer.add_char b (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else if code < 0x10000 then begin
          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end;
        Buffer.contents b
      end
      else fail st (Printf.sprintf "unknown entity &%s;" name)

let parse_attr_value st =
  let quote = peek_char st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
  advance st;
  let b = Buffer.create 16 in
  let rec go () =
    if eof st then fail st "unterminated attribute value"
    else
      let c = peek_char st in
      if c = quote then advance st
      else if c = '&' then begin
        Buffer.add_string b (parse_reference st);
        go ()
      end
      else begin
        Buffer.add_char b c;
        advance st;
        go ()
      end
  in
  go ();
  Buffer.contents b

let parse_attrs st =
  let rec go acc =
    skip_ws st;
    if is_name_start (peek_char st) then begin
      let name = parse_name st in
      skip_ws st;
      expect st "=";
      skip_ws st;
      let value = parse_attr_value st in
      go ((name, value) :: acc)
    end
    else List.rev acc
  in
  go []

let skip_until st marker =
  let n = String.length st.src in
  let rec go () =
    if st.pos >= n then fail st (Printf.sprintf "expected %S" marker)
    else if looking_at st marker then st.pos <- st.pos + String.length marker
    else begin
      advance st;
      go ()
    end
  in
  go ()

let parse_cdata st =
  expect st "<![CDATA[";
  let start = st.pos in
  skip_until st "]]>";
  Cdata (String.sub st.src start (st.pos - 3 - start))

let parse_comment st =
  expect st "<!--";
  let start = st.pos in
  skip_until st "-->";
  Comment (String.sub st.src start (st.pos - 3 - start))

let rec parse_element st =
  expect st "<";
  let name = parse_name st in
  let attrs = parse_attrs st in
  skip_ws st;
  if looking_at st "/>" then begin
    expect st "/>";
    Element (name, attrs, [])
  end
  else begin
    expect st ">";
    let children = parse_content st in
    expect st "</";
    let close = parse_name st in
    if not (String.equal close name) then
      fail st (Printf.sprintf "mismatched closing tag </%s> for <%s>" close name);
    skip_ws st;
    expect st ">";
    Element (name, attrs, children)
  end

and parse_content st =
  let items = ref [] in
  let buf = Buffer.create 16 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      items := Text (Buffer.contents buf) :: !items;
      Buffer.clear buf
    end
  in
  let rec go () =
    if eof st then fail st "unterminated element"
    else if looking_at st "</" then flush_text ()
    else if looking_at st "<![CDATA[" then begin
      flush_text ();
      items := parse_cdata st :: !items;
      go ()
    end
    else if looking_at st "<!--" then begin
      flush_text ();
      items := parse_comment st :: !items;
      go ()
    end
    else if looking_at st "<?" then begin
      flush_text ();
      skip_until st "?>";
      go ()
    end
    else if peek_char st = '<' then begin
      flush_text ();
      items := parse_element st :: !items;
      go ()
    end
    else if peek_char st = '&' then begin
      Buffer.add_string buf (parse_reference st);
      go ()
    end
    else begin
      Buffer.add_char buf (peek_char st);
      advance st;
      go ()
    end
  in
  go ();
  List.rev !items

let parse_prolog st =
  let rec go () =
    skip_ws st;
    if looking_at st "<?" then begin
      skip_until st "?>";
      go ()
    end
    else if looking_at st "<!--" then begin
      ignore (parse_comment st);
      go ()
    end
    else if looking_at st "<!DOCTYPE" then begin
      skip_until st ">";
      go ()
    end
  in
  go ()

let parse s =
  let st = { src = s; pos = 0 } in
  try
    parse_prolog st;
    if eof st then Error { position = st.pos; message = "empty document" }
    else begin
      let root = parse_element st in
      (* Trailing comments / whitespace are allowed. *)
      let rec tail () =
        skip_ws st;
        if looking_at st "<!--" then begin
          ignore (parse_comment st);
          tail ()
        end
      in
      tail ();
      if not (eof st) then
        Error { position = st.pos; message = "trailing content after root" }
      else Ok root
    end
  with Err e -> Error e

let parse_exn s =
  match parse s with
  | Ok x -> x
  | Error e -> invalid_arg (Format.asprintf "%a" pp_error e)
