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

(* The escaped form of [s.[pos, pos + len)]. *)
let emit_escaped_sub sink ~quotes s pos len =
  let stop = pos + len in
  let run = ref pos in
  for i = pos to stop - 1 do
    let c = String.unsafe_get s i in
    if special ~quotes c then begin
      if i > !run then emit_sub sink s !run (i - !run);
      emit_string sink (entity c);
      run := i + 1
    end
  done;
  if stop > !run then emit_sub sink s !run (stop - !run)

let emit_escaped sink ~quotes s =
  emit_escaped_sub sink ~quotes s 0 (String.length s)

let escape_with ~quotes s =
  if not (String.exists (special ~quotes) s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    emit_escaped (Buf b) ~quotes s;
    Buffer.contents b
  end

let escape_text s = escape_with ~quotes:false s
let escape_attr s = escape_with ~quotes:true s
let escape_attr_to b s = emit_escaped (Buf b) ~quotes:true s

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

let to_buffer b x = emit_node (Buf b) x

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
(* Pull reader                                                         *)
(* ------------------------------------------------------------------ *)

type error = { position : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "XML parse error at byte %d: %s" e.position e.message

exception Malformed of error

let rec matches_at src pos s i =
  i >= String.length s
  || Char.equal (String.unsafe_get src (pos + i)) (String.unsafe_get s i)
     && matches_at src pos s (i + 1)

(* [src.[a, a + len)] and [src.[b, b + len)] hold the same bytes. *)
let rec same_range src a b len =
  len = 0
  || Char.equal (String.unsafe_get src a) (String.unsafe_get src b)
     && same_range src (a + 1) (b + 1) (len - 1)

let is_name_start = function
  | 'A' .. 'Z' | 'a' .. 'z' | '_' | ':' -> true
  | _ -> false

let is_name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | ':' | '-' | '.' -> true
  | _ -> false

(* XML 1.0 [2] Char. *)
let is_xml_char c =
  c = 0x9 || c = 0xA || c = 0xD
  || (c >= 0x20 && c <= 0xD7FF)
  || (c >= 0xE000 && c <= 0xFFFD)
  || (c >= 0x10000 && c <= 0x10FFFF)

let digit_value ~hex c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' when hex -> Char.code c - 87
  | 'A' .. 'F' when hex -> Char.code c - 55
  | _ -> -1

(* The value of a character reference's body [src.[pos, stop)], the part
   between ["&#"] and [";"]: [\[0-9\]+] or [x\[0-9a-fA-F\]+] (XML 1.0
   [66]), else -1. Capped at 0x110000, past every code point, so a long
   run of digits cannot overflow. *)
let char_ref_value src pos stop =
  let hex = pos < stop && Char.equal (String.unsafe_get src pos) 'x' in
  let first = if hex then pos + 1 else pos in
  let base = if hex then 16 else 10 in
  let rec go i v =
    if i >= stop then v
    else
      let d = digit_value ~hex (String.unsafe_get src i) in
      if d < 0 then -1 else go (i + 1) (min 0x110000 ((v * base) + d))
  in
  if first >= stop then -1 else go first 0

(* The code point of the already validated reference starting at
   [src.[i] = '&'], and the position just past its [';']. *)
let ref_stop src i = String.index_from src i ';' + 1

let ref_code src i =
  match String.unsafe_get src (i + 1) with
  | 'l' -> Char.code '<'
  | 'g' -> Char.code '>'
  | 'q' -> Char.code '"'
  | 'a' -> if Char.equal src.[i + 2] 'm' then Char.code '&' else Char.code '\''
  | _ -> char_ref_value src (i + 2) (ref_stop src i - 1)

(* Every byte as a one-byte string, to feed a decoded character without
   building one. *)
let byte_strings = String.init 256 Char.chr

let emit_byte sink b = emit_sub sink byte_strings b 1

let emit_code sink ~quotes c =
  if c < 0x80 then begin
    let ch = Char.unsafe_chr c in
    if special ~quotes ch then emit_string sink (entity ch) else emit_byte sink c
  end
  else if c < 0x800 then begin
    emit_byte sink (0xC0 lor (c lsr 6));
    emit_byte sink (0x80 lor (c land 0x3F))
  end
  else if c < 0x10000 then begin
    emit_byte sink (0xE0 lor (c lsr 12));
    emit_byte sink (0x80 lor ((c lsr 6) land 0x3F));
    emit_byte sink (0x80 lor (c land 0x3F))
  end
  else begin
    emit_byte sink (0xF0 lor (c lsr 18));
    emit_byte sink (0x80 lor ((c lsr 12) land 0x3F));
    emit_byte sink (0x80 lor ((c lsr 6) land 0x3F));
    emit_byte sink (0x80 lor (c land 0x3F))
  end

(* The escaped rendering of the validated character data
   [src.[pos, stop)]: references are decoded, then everything is
   re-escaped exactly as {!emit_escaped} escapes the decoded string. *)
let emit_decoded sink ~quotes src pos stop =
  let run = ref pos and i = ref pos in
  while !i < stop do
    if Char.equal (String.unsafe_get src !i) '&' then begin
      emit_escaped_sub sink ~quotes src !run (!i - !run);
      emit_code sink ~quotes (ref_code src !i);
      i := ref_stop src !i;
      run := !i
    end
    else incr i
  done;
  emit_escaped_sub sink ~quotes src !run (stop - !run)

(* The decoded string of validated character data; a plain slice when it
   holds no reference. *)
let decoded src pos stop ~refs =
  if not refs then String.sub src pos (stop - pos)
  else begin
    let b = Buffer.create (stop - pos) in
    let run = ref pos and i = ref pos in
    while !i < stop do
      if Char.equal (String.unsafe_get src !i) '&' then begin
        Buffer.add_substring b src !run (!i - !run);
        Buffer.add_utf_8_uchar b (Uchar.unsafe_of_int (ref_code src !i));
        i := ref_stop src !i;
        run := !i
      end
      else incr i
    done;
    Buffer.add_substring b src !run (stop - !run);
    Buffer.contents b
  end

module Reader = struct
  type token = Start | End | Text | Cdata | Comment | Eof

  type phase =
    | Prolog
    | Content
    | Self_closed  (* the last start tag ended in "/>": its End is next *)
    | Finished

  (* Slots per attribute in [attrs]: name start and length, value start
     and end, and 1 when the value holds a reference. *)
  let stride = 5

  type t = {
    src : string;
    mutable pos : int;
    mutable phase : phase;
    (* The current token: the tag name for Start and End, the content
       for Text, Cdata and Comment. *)
    mutable tok_pos : int;
    mutable tok_len : int;
    mutable tok_refs : bool;
    mutable attrs : int array;
    mutable n_attrs : int;
    (* Open elements' name ranges, two slots each. *)
    mutable stack : int array;
    mutable depth : int;
    (* The streamed digest: where the canonical rendering goes, and the
       root attribute left out of it. *)
    sink : sink option;
    omit : string;
    (* A start tag is hashed up to its attributes; whether ">" or "/>"
       closes it is known only at its first child or its end. *)
    mutable pending : bool;
    (* The left-out root attribute's value range, and whether it holds a
       reference; [omit_pos < 0] when the root has none. *)
    mutable omit_pos : int;
    mutable omit_stop : int;
    mutable omit_refs : bool;
  }

  (* Scratch arrays, one spare pair per domain: a reader takes them when
     it is created and gives them back at the end of input, so documents
     read one after another reuse the same two arrays. A reader created
     while another holds them, or abandoned before its end, allocates
     its own. *)
  type spare = { mutable spare_attrs : int array; mutable spare_stack : int array }

  let spare =
    Domain.DLS.new_key (fun () -> { spare_attrs = [||]; spare_stack = [||] })

  let or_fresh a size = if Array.length a = 0 then Array.make size 0 else a

  let create ?digest src =
    let sp = Domain.DLS.get spare in
    let attrs = or_fresh sp.spare_attrs (4 * stride)
    and stack = or_fresh sp.spare_stack 16 in
    sp.spare_attrs <- [||];
    sp.spare_stack <- [||];
    {
      src;
      pos = 0;
      phase = Prolog;
      tok_pos = 0;
      tok_len = 0;
      tok_refs = false;
      attrs;
      n_attrs = 0;
      stack;
      depth = 0;
      sink =
        (match digest with Some _ -> Some (Hash (Fnv.start ())) | None -> None);
      omit = (match digest with Some a -> a | None -> "");
      pending = false;
      omit_pos = -1;
      omit_stop = -1;
      omit_refs = false;
    }

  let give_back r =
    let sp = Domain.DLS.get spare in
    sp.spare_attrs <- r.attrs;
    sp.spare_stack <- r.stack;
    r.attrs <- [||];
    r.stack <- [||];
    r.n_attrs <- 0

  let fail r message = raise (Malformed { position = r.pos; message })
  let eof r = r.pos >= String.length r.src
  let peek r = if eof r then '\000' else String.unsafe_get r.src r.pos

  (* The source continues with [s]; compared in place, so probing for
     markup allocates nothing. *)
  let looking_at r s =
    r.pos + String.length s <= String.length r.src
    && matches_at r.src r.pos s 0

  let expect r s =
    if looking_at r s then r.pos <- r.pos + String.length s
    else fail r (Printf.sprintf "expected %S" s)

  let skip_ws r =
    let src = r.src in
    let p = ref r.pos in
    while
      !p < String.length src
      && match String.unsafe_get src !p with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      incr p
    done;
    r.pos <- !p

  let scan_name r =
    if not (is_name_start (peek r)) then fail r "expected a name";
    let src = r.src in
    let p = ref (r.pos + 1) in
    while !p < String.length src && is_name_char (String.unsafe_get src !p) do
      incr p
    done;
    r.pos <- !p

  let rec skip_until r marker =
    if eof r then fail r (Printf.sprintf "expected %S" marker)
    else if looking_at r marker then r.pos <- r.pos + String.length marker
    else begin
      r.pos <- r.pos + 1;
      skip_until r marker
    end

  (* Validates the reference at ['&']: a predefined entity, matched in
     place, or a character reference. *)
  let scan_reference r =
    if looking_at r "&lt;" || looking_at r "&gt;" then r.pos <- r.pos + 4
    else if looking_at r "&amp;" then r.pos <- r.pos + 5
    else if looking_at r "&quot;" || looking_at r "&apos;" then
      r.pos <- r.pos + 6
    else begin
      r.pos <- r.pos + 1;
      let start = r.pos in
      while (not (eof r)) && peek r <> ';' do
        r.pos <- r.pos + 1
      done;
      if eof r then fail r "unterminated entity reference";
      let stop = r.pos in
      r.pos <- r.pos + 1;
      if stop - start > 1 && Char.equal r.src.[start] '#' then begin
        let code = char_ref_value r.src (start + 1) stop in
        if code < 0 then fail r "bad character reference"
        else if code > 0x10FFFF then fail r "character out of range"
        else if not (is_xml_char code) then
          fail r "reference to a code point that is not an XML character"
      end
      else
        fail r
          (Printf.sprintf "unknown entity &%s;"
             (String.sub r.src start (stop - start)))
    end

  (* Character data up to the next [stop] byte (or the end of input when
     [stop] is ['<']); true when it holds a reference. *)
  let rec scan_data r stop refs =
    let src = r.src in
    let p = ref r.pos in
    while
      !p < String.length src
      &&
      let c = String.unsafe_get src !p in
      (not (Char.equal c stop)) && not (Char.equal c '&')
    do
      incr p
    done;
    r.pos <- !p;
    if (not (eof r)) && Char.equal (String.unsafe_get src !p) '&' then begin
      scan_reference r;
      scan_data r stop true
    end
    else refs

  let add_attr r name_pos name_len value_pos value_stop refs =
    let k = r.n_attrs * stride in
    if k + stride > Array.length r.attrs then begin
      let a = Array.make ((2 * Array.length r.attrs) + stride) 0 in
      Array.blit r.attrs 0 a 0 k;
      r.attrs <- a
    end;
    let a = r.attrs in
    a.(k) <- name_pos;
    a.(k + 1) <- name_len;
    a.(k + 2) <- value_pos;
    a.(k + 3) <- value_stop;
    a.(k + 4) <- (if refs then 1 else 0);
    r.n_attrs <- r.n_attrs + 1

  (* XML 1.0 "Unique Att Spec": a name appears at most once per tag, so a
     reader can never be shown one value while another is checked. *)
  let check_unique r start len =
    for i = 0 to r.n_attrs - 1 do
      let k = i * stride in
      if r.attrs.(k + 1) = len && same_range r.src r.attrs.(k) start len then
        raise
          (Malformed
             { position = start;
               message =
                 Printf.sprintf "duplicate attribute %S"
                   (String.sub r.src start len) })
    done

  let rec scan_attrs r =
    skip_ws r;
    if is_name_start (peek r) then begin
      let start = r.pos in
      scan_name r;
      let len = r.pos - start in
      check_unique r start len;
      skip_ws r;
      expect r "=";
      skip_ws r;
      let quote = peek r in
      if quote <> '"' && quote <> '\'' then fail r "expected quoted value";
      r.pos <- r.pos + 1;
      let value_pos = r.pos in
      let refs = scan_data r quote false in
      if eof r then fail r "unterminated attribute value";
      add_attr r start len value_pos r.pos refs;
      r.pos <- r.pos + 1;
      scan_attrs r
    end

  let emit r s =
    match r.sink with Some sink -> emit_string sink s | None -> ()

  let emit_name r pos len =
    match r.sink with Some sink -> emit_sub sink r.src pos len | None -> ()

  (* A child is coming: the parent's start tag closes with ">". *)
  let open_parent r =
    if r.pending then begin
      r.pending <- false;
      emit r ">"
    end

  let hash_start_tag r sink =
    open_parent r;
    emit_string sink "<";
    emit_sub sink r.src r.tok_pos r.tok_len;
    for i = 0 to r.n_attrs - 1 do
      let k = i * stride in
      let a = r.attrs in
      if
        r.depth = 1
        && a.(k + 1) = String.length r.omit
        && matches_at r.src a.(k) r.omit 0
      then begin
        r.omit_pos <- a.(k + 2);
        r.omit_stop <- a.(k + 3);
        r.omit_refs <- a.(k + 4) = 1
      end
      else begin
        emit_string sink " ";
        emit_sub sink r.src a.(k) a.(k + 1);
        emit_string sink "=\"";
        if a.(k + 4) = 1 then
          emit_decoded sink ~quotes:true r.src a.(k + 2) a.(k + 3)
        else
          emit_escaped_sub sink ~quotes:true r.src a.(k + 2)
            (a.(k + 3) - a.(k + 2));
        emit_string sink "\""
      end
    done;
    r.pending <- true

  let start_tag r =
    expect r "<";
    let name_pos = r.pos in
    scan_name r;
    let name_len = r.pos - name_pos in
    r.n_attrs <- 0;
    scan_attrs r;
    skip_ws r;
    if looking_at r "/>" then begin
      r.pos <- r.pos + 2;
      r.phase <- Self_closed
    end
    else expect r ">";
    let k = 2 * r.depth in
    if k + 2 > Array.length r.stack then begin
      let s = Array.make ((2 * Array.length r.stack) + 2) 0 in
      Array.blit r.stack 0 s 0 k;
      r.stack <- s
    end;
    r.stack.(k) <- name_pos;
    r.stack.(k + 1) <- name_len;
    r.depth <- r.depth + 1;
    r.tok_pos <- name_pos;
    r.tok_len <- name_len;
    (match r.sink with Some sink -> hash_start_tag r sink | None -> ());
    Start

  let close r =
    r.depth <- r.depth - 1;
    let k = 2 * r.depth in
    r.tok_pos <- r.stack.(k);
    r.tok_len <- r.stack.(k + 1);
    if r.pending then begin
      r.pending <- false;
      emit r "/>"
    end
    else begin
      emit r "</";
      emit_name r r.tok_pos r.tok_len;
      emit r ">"
    end;
    End

  (* The closing tag names the innermost open element: compared in
     place, parsed (and allocated) only to report a mismatch. *)
  let end_tag r =
    r.pos <- r.pos + 2;
    let k = 2 * (r.depth - 1) in
    let name_pos = r.stack.(k) and name_len = r.stack.(k + 1) in
    let after = r.pos + name_len in
    let n = String.length r.src in
    if
      after <= n
      && same_range r.src name_pos r.pos name_len
      && not (after < n && is_name_char r.src.[after])
    then r.pos <- after
    else begin
      let start = r.pos in
      scan_name r;
      fail r
        (Printf.sprintf "mismatched closing tag </%s> for <%s>"
           (String.sub r.src start (r.pos - start))
           (String.sub r.src name_pos name_len))
    end;
    skip_ws r;
    expect r ">";
    close r

  let text r =
    let start = r.pos in
    let refs = scan_data r '<' false in
    r.tok_pos <- start;
    r.tok_len <- r.pos - start;
    r.tok_refs <- refs;
    (match r.sink with
    | Some sink ->
        open_parent r;
        if refs then emit_decoded sink ~quotes:false r.src start r.pos
        else emit_escaped_sub sink ~quotes:false r.src start (r.pos - start)
    | None -> ());
    Text

  (* CDATA and comments: hashed verbatim between their delimiters. *)
  let delimited r ~opening ~closing tok =
    r.pos <- r.pos + String.length opening;
    let start = r.pos in
    skip_until r closing;
    r.tok_pos <- start;
    r.tok_len <- r.pos - String.length closing - start;
    r.tok_refs <- false;
    (match r.sink with
    | Some sink ->
        open_parent r;
        emit_string sink opening;
        emit_sub sink r.src start r.tok_len;
        emit_string sink closing
    | None -> ());
    tok

  let skip_comment r =
    r.pos <- r.pos + 4;
    skip_until r "-->"

  let rec prolog r =
    skip_ws r;
    if looking_at r "<?" then begin
      skip_until r "?>";
      prolog r
    end
    else if looking_at r "<!--" then begin
      skip_comment r;
      prolog r
    end
    else if looking_at r "<!DOCTYPE" then begin
      skip_until r ">";
      prolog r
    end

  (* After the root: whitespace and comments only. *)
  let rec epilog r =
    skip_ws r;
    if looking_at r "<!--" then begin
      skip_comment r;
      epilog r
    end

  let rec content r =
    if eof r then fail r "unterminated element"
    else if peek r <> '<' then text r
    else if looking_at r "</" then end_tag r
    else if looking_at r "<![CDATA[" then
      delimited r ~opening:"<![CDATA[" ~closing:"]]>" Cdata
    else if looking_at r "<!--" then
      delimited r ~opening:"<!--" ~closing:"-->" Comment
    else if looking_at r "<?" then begin
      skip_until r "?>";
      content r
    end
    else start_tag r

  let next r =
    match r.phase with
    | Content when r.depth > 0 -> content r
    | Content ->
        epilog r;
        if not (eof r) then fail r "trailing content after root";
        r.phase <- Finished;
        give_back r;
        Eof
    | Self_closed ->
        r.phase <- Content;
        close r
    | Prolog ->
        prolog r;
        if eof r then fail r "empty document";
        r.phase <- Content;
        start_tag r
    | Finished -> Eof

  let rec next_tag r =
    match next r with Text | Cdata | Comment -> next_tag r | tok -> tok

  let skip r =
    let outer = r.depth - 1 in
    while r.depth > outer do
      ignore (next r)
    done

  let rec drain r = match next r with Eof -> () | _ -> drain r

  let is r s =
    r.tok_len = String.length s && matches_at r.src r.tok_pos s 0

  let name r = String.sub r.src r.tok_pos r.tok_len

  let text r =
    decoded r.src r.tok_pos (r.tok_pos + r.tok_len) ~refs:r.tok_refs

  let rec find_attr r name i =
    if i >= r.n_attrs then -1
    else
      let k = i * stride in
      if
        r.attrs.(k + 1) = String.length name
        && matches_at r.src r.attrs.(k) name 0
      then i
      else find_attr r name (i + 1)

  let attr r name = find_attr r name 0

  let value r i =
    let k = i * stride in
    decoded r.src r.attrs.(k + 2) r.attrs.(k + 3) ~refs:(r.attrs.(k + 4) = 1)

  let value_is r i s =
    let k = i * stride in
    if r.attrs.(k + 4) = 1 then String.equal (value r i) s
    else
      r.attrs.(k + 3) - r.attrs.(k + 2) = String.length s
      && matches_at r.src r.attrs.(k + 2) s 0

  let value_with r i f =
    let k = i * stride in
    if r.attrs.(k + 4) = 1 then
      let v = value r i in
      f v 0 (String.length v)
    else f r.src r.attrs.(k + 2) (r.attrs.(k + 3) - r.attrs.(k + 2))

  let text_with r f x =
    if r.tok_refs then
      let v = text r in
      f x v 0 (String.length v)
    else f x r.src r.tok_pos r.tok_len

  let rec attributes_from r i =
    if i >= r.n_attrs then []
    else
      let k = i * stride in
      let pair = (String.sub r.src r.attrs.(k) r.attrs.(k + 1), value r i) in
      pair :: attributes_from r (i + 1)

  let attributes r = attributes_from r 0

  exception Invalid of string

  let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

  let required r name =
    let i = attr r name in
    if i < 0 then invalid "missing attribute %S" name else i

  let required_value r name = value r (required r name)

  let rec pick r i ~what to_string = function
    | [] -> invalid "bad %s %S" what (value r i)
    | c :: rest ->
        if value_is r i (to_string c) then c else pick r i ~what to_string rest

  let choice r name ~what to_string cases =
    pick r (required r name) ~what to_string cases

  let omitted r =
    if r.omit_pos < 0 then None
    else Some (decoded r.src r.omit_pos r.omit_stop ~refs:r.omit_refs)

  let digest r =
    match r.sink with Some (Hash st) -> Fnv.value st | _ -> Fnv.offset_basis
end

(* ------------------------------------------------------------------ *)
(* Tree builder                                                        *)
(* ------------------------------------------------------------------ *)

(* Called on Start: the name and attributes are read before the
   children overwrite them. *)
let rec subtree r =
  let name = Reader.name r in
  let attrs = Reader.attributes r in
  Element (name, attrs, build_children r)

(* The children, in document order, through the parent's End. *)
and build_children r =
  match Reader.next r with
  | Reader.Start ->
      let c = subtree r in
      c :: build_children r
  | Reader.Text ->
      let c = Text (Reader.text r) in
      c :: build_children r
  | Reader.Cdata ->
      let c = Cdata (Reader.text r) in
      c :: build_children r
  | Reader.Comment ->
      let c = Comment (Reader.text r) in
      c :: build_children r
  | Reader.End | Reader.Eof -> []

let parse s =
  let r = Reader.create s in
  match
    ignore (Reader.next r);
    let root = subtree r in
    ignore (Reader.next r);
    root
  with
  | root -> Ok root
  | exception Malformed e -> Error e

let parse_exn s =
  match parse s with
  | Ok x -> x
  | Error e -> invalid_arg (Format.asprintf "%a" pp_error e)
