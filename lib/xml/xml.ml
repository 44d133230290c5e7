module Fnv = Pti_util.Fnv

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

let special ~quotes = function
  | '<' | '>' | '&' -> true
  | '"' | '\'' -> quotes
  | _ -> false

let entity = function
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '&' -> "&amp;"
  | '"' -> "&quot;"
  | _ -> "&apos;"

(* The compact rendering goes out in fragments, to a buffer or straight
   into an FNV-1a state. Runs of text that need no escaping are slices
   of the tree's own strings, so neither sink ever copies them. *)
type sink = Buf of Buffer.t | Hash of Fnv.state

let emit_sub sink s pos len =
  match sink with
  | Buf b -> Buffer.add_substring b s pos len
  | Hash st -> Fnv.feed st s pos len

let emit_string sink s =
  match sink with
  | Buf b -> Buffer.add_string b s
  | Hash st -> Fnv.feed st s 0 (String.length s)

let emit_escaped sink ~quotes s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if special ~quotes c then begin
      if i > !run then emit_sub sink s !run (i - !run);
      emit_string sink (entity c);
      run := i + 1
    end
  done;
  if !run = 0 then emit_string sink s
  else if n > !run then emit_sub sink s !run (n - !run)

let escape_with ~quotes s =
  if not (String.exists (special ~quotes) s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    emit_escaped (Buf b) ~quotes s;
    Buffer.contents b
  end

let escape_text s = escape_with ~quotes:false s
let escape_attr s = escape_with ~quotes:true s

let rec emit_attrs sink = function
  | [] -> ()
  | (k, v) :: rest ->
      emit_string sink " ";
      emit_string sink k;
      emit_string sink "=\"";
      emit_escaped sink ~quotes:true v;
      emit_string sink "\"";
      emit_attrs sink rest

let rec emit_node sink = function
  | Text s -> emit_escaped sink ~quotes:false s
  | Cdata s ->
      emit_string sink "<![CDATA[";
      emit_string sink s;
      emit_string sink "]]>"
  | Comment s ->
      emit_string sink "<!--";
      emit_string sink s;
      emit_string sink "-->"
  | Element (tag, attrs, cs) -> (
      emit_string sink "<";
      emit_string sink tag;
      emit_attrs sink attrs;
      match cs with
      | [] -> emit_string sink "/>"
      | _ ->
          emit_string sink ">";
          emit_nodes sink cs;
          emit_string sink "</";
          emit_string sink tag;
          emit_string sink ">")

and emit_nodes sink = function
  | [] -> ()
  | c :: rest ->
      emit_node sink c;
      emit_nodes sink rest

let decl_string = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"

let to_string ?(decl = false) x =
  let b = Buffer.create 256 in
  if decl then Buffer.add_string b decl_string;
  emit_node (Buf b) x;
  Buffer.contents b

let hash x =
  let st = Fnv.start () in
  emit_node (Hash st) x;
  Fnv.value st

let to_string_pretty ?(decl = false) ?(indent = 2) x =
  let b = Buffer.create 256 in
  if decl then begin
    Buffer.add_string b decl_string;
    Buffer.add_char b '\n'
  end;
  let sink = Buf b in
  let pad depth = Buffer.add_string b (String.make (depth * indent) ' ') in
  (* An element renders inline when all its children are character data. *)
  let inline_children cs =
    List.for_all (function Text _ | Cdata _ -> true | _ -> false) cs
  in
  let rec go depth node =
    match node with
    | Text s ->
        pad depth;
        emit_escaped sink ~quotes:false s;
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
        emit_attrs sink attrs;
        Buffer.add_string b "/>\n"
    | Element (tag, attrs, cs) when inline_children cs ->
        pad depth;
        Buffer.add_char b '<';
        Buffer.add_string b tag;
        emit_attrs sink attrs;
        Buffer.add_char b '>';
        emit_nodes sink cs;
        Buffer.add_string b "</";
        Buffer.add_string b tag;
        Buffer.add_string b ">\n"
    | Element (tag, attrs, cs) ->
        pad depth;
        Buffer.add_char b '<';
        Buffer.add_string b tag;
        emit_attrs sink attrs;
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

let rec matches_at src pos s i =
  i >= String.length s
  || Char.equal (String.unsafe_get src (pos + i)) (String.unsafe_get s i)
     && matches_at src pos s (i + 1)

(* The source continues with [s]; compared in place, so probing for
   markup allocates nothing. *)
let looking_at st s =
  st.pos + String.length s <= String.length st.src
  && matches_at st.src st.pos s 0

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

(* A reference other than the predefined entities: [&#N;] or [&#xN;]. *)
let parse_char_reference st =
  advance st;
  let start = st.pos in
  while (not (eof st)) && peek_char st <> ';' do
    advance st
  done;
  if eof st then fail st "unterminated entity reference";
  let name = String.sub st.src start (st.pos - start) in
  advance st;
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

let parse_reference st =
  (* Called on '&'. The predefined entities are matched in place. *)
  if looking_at st "&lt;" then (st.pos <- st.pos + 4; "<")
  else if looking_at st "&gt;" then (st.pos <- st.pos + 4; ">")
  else if looking_at st "&amp;" then (st.pos <- st.pos + 5; "&")
  else if looking_at st "&quot;" then (st.pos <- st.pos + 6; "\"")
  else if looking_at st "&apos;" then (st.pos <- st.pos + 6; "'")
  else parse_char_reference st

(* Advances to the next [stop] or ['&'], or to the end of input. *)
let skip_plain st stop =
  let n = String.length st.src in
  while
    st.pos < n
    &&
    let c = String.unsafe_get st.src st.pos in
    (not (Char.equal c stop)) && not (Char.equal c '&')
  do
    advance st
  done

(* Attribute values and text are sliced straight out of the source; only
   one holding a reference is decoded through a buffer. *)
let parse_attr_value st =
  let quote = peek_char st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
  advance st;
  let start = st.pos in
  skip_plain st quote;
  if eof st then fail st "unterminated attribute value"
  else if Char.equal (peek_char st) quote then begin
    advance st;
    String.sub st.src start (st.pos - 1 - start)
  end
  else begin
    let b = Buffer.create (st.pos - start + 16) in
    Buffer.add_substring b st.src start (st.pos - start);
    while eof st || not (Char.equal (peek_char st) quote) do
      if eof st then fail st "unterminated attribute value"
      else if peek_char st = '&' then Buffer.add_string b (parse_reference st)
      else begin
        Buffer.add_char b (peek_char st);
        advance st
      end
    done;
    advance st;
    Buffer.contents b
  end

let parse_text st =
  let start = st.pos in
  skip_plain st '<';
  if eof st || peek_char st = '<' then
    Text (String.sub st.src start (st.pos - start))
  else begin
    let b = Buffer.create (st.pos - start + 16) in
    Buffer.add_substring b st.src start (st.pos - start);
    while (not (eof st)) && peek_char st <> '<' do
      if peek_char st = '&' then Buffer.add_string b (parse_reference st)
      else begin
        Buffer.add_char b (peek_char st);
        advance st
      end
    done;
    Text (Buffer.contents b)
  end

let rec mem_attr name = function
  | [] -> false
  | (k, _) :: rest -> String.equal k name || mem_attr name rest

(* XML 1.0 "Unique Att Spec": a name appears at most once per tag, so a
   reader can never be shown one value while another is checked. *)
let rec parse_attrs st acc =
  skip_ws st;
  if is_name_start (peek_char st) then begin
    let start = st.pos in
    let name = parse_name st in
    if mem_attr name acc then
      raise
        (Err
           { position = start;
             message = Printf.sprintf "duplicate attribute %S" name });
    skip_ws st;
    expect st "=";
    skip_ws st;
    let value = parse_attr_value st in
    parse_attrs st ((name, value) :: acc)
  end
  else List.rev acc

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

(* The closing tag names [name]: compared in place, parsed (and
   allocated) only to report a mismatch. *)
let expect_close st name =
  let after = st.pos + String.length name in
  if
    looking_at st name
    && not (after < String.length st.src && is_name_char st.src.[after])
  then st.pos <- after
  else
    let close = parse_name st in
    fail st (Printf.sprintf "mismatched closing tag </%s> for <%s>" close name)

let rec parse_element st =
  expect st "<";
  let name = parse_name st in
  let attrs = parse_attrs st [] in
  skip_ws st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    Element (name, attrs, [])
  end
  else begin
    expect st ">";
    let children = parse_content st [] in
    expect st "</";
    expect_close st name;
    skip_ws st;
    expect st ">";
    Element (name, attrs, children)
  end

(* Children so far in [acc], reversed. *)
and parse_content st acc =
  if eof st then fail st "unterminated element"
  else if peek_char st <> '<' then parse_content st (parse_text st :: acc)
  else if looking_at st "</" then List.rev acc
  else if looking_at st "<![CDATA[" then
    parse_content st (parse_cdata st :: acc)
  else if looking_at st "<!--" then parse_content st (parse_comment st :: acc)
  else if looking_at st "<?" then begin
    skip_until st "?>";
    parse_content st acc
  end
  else parse_content st (parse_element st :: acc)

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
