type t =
  | Void
  | Bool
  | Int
  | Float
  | String
  | Char
  | Named of string
  | Array of t

let rec equal a b =
  match a, b with
  | Void, Void | Bool, Bool | Int, Int | Float, Float | String, String
  | Char, Char ->
      true
  | Named x, Named y -> Pti_util.Strutil.equal_ci x y
  | Array x, Array y -> equal x y
  | (Void | Bool | Int | Float | String | Char | Named _ | Array _), _ -> false

let rec compare a b =
  let rank = function
    | Void -> 0
    | Bool -> 1
    | Int -> 2
    | Float -> 3
    | String -> 4
    | Char -> 5
    | Named _ -> 6
    | Array _ -> 7
  in
  match a, b with
  | Named x, Named y -> Pti_util.Strutil.compare_ci x y
  | Array x, Array y -> compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let rec is_primitive = function
  | Void | Bool | Int | Float | String | Char -> true
  | Named _ -> false
  | Array e -> is_primitive e

let rec to_string = function
  | Void -> "void"
  | Bool -> "bool"
  | Int -> "int"
  | Float -> "float"
  | String -> "string"
  | Char -> "char"
  | Named n -> n
  | Array e -> to_string e ^ "[]"

let is_trimmed_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

(* [s.[pos, pos + len)] equals the lowercase keyword [kw], ignoring
   ASCII case. *)
let rec keyword_from s pos kw i =
  i >= String.length kw
  || Char.equal
       (Char.lowercase_ascii (String.unsafe_get s (pos + i)))
       (String.unsafe_get kw i)
     && keyword_from s pos kw (i + 1)

let keyword_at s pos len kw = len = String.length kw && keyword_from s pos kw 0

(* Trimmed like [String.trim] and matched in place: only a [Named]
   reference copies its name, and not even that when it is all of [s]. *)
let rec trim_start s i stop =
  if i < stop && is_trimmed_space s.[i] then trim_start s (i + 1) stop else i

let rec trim_stop s start j =
  if j > start && is_trimmed_space s.[j - 1] then trim_stop s start (j - 1)
  else j

let rec of_sub s pos len =
  let start = trim_start s pos (pos + len) in
  let stop = trim_stop s start (pos + len) in
  let n = stop - start in
  if n = 0 then None
  else if n >= 2 && Char.equal s.[stop - 2] '[' && Char.equal s.[stop - 1] ']'
  then
    match of_sub s start (n - 2) with
    | Some e -> Some (Array e)
    | None -> None
  else if keyword_at s start n "void" then Some Void
  else if keyword_at s start n "bool" || keyword_at s start n "boolean" then
    Some Bool
  else if
    keyword_at s start n "int" || keyword_at s start n "int32"
    || keyword_at s start n "int64"
  then Some Int
  else if keyword_at s start n "float" || keyword_at s start n "double" then
    Some Float
  else if keyword_at s start n "string" then Some String
  else if keyword_at s start n "char" then Some Char
  else if n = String.length s then Some (Named s)
  else Some (Named (String.sub s start n))

let of_string s = of_sub s 0 (String.length s)

let of_string_exn s =
  match of_string s with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Ty.of_string_exn: %S" s)

let element_type = function Array e -> Some e | _ -> None

let rec named_roots = function
  | Void | Bool | Int | Float | String | Char -> []
  | Named n -> [ n ]
  | Array e -> named_roots e

let pp ppf t = Format.pp_print_string ppf (to_string t)
