let starts_with ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let split_on c s = String.split_on_char c s

let join sep parts = String.concat sep parts

let rec equal_ci_from a b i =
  i >= String.length a
  || Char.equal
       (Char.lowercase_ascii (String.unsafe_get a i))
       (Char.lowercase_ascii (String.unsafe_get b i))
     && equal_ci_from a b (i + 1)

let equal_ci a b =
  String.length a = String.length b && equal_ci_from a b 0

let rec hash_ci_from s i h =
  if i >= String.length s then h land max_int
  else
    hash_ci_from s (i + 1)
      ((h * 31) + Char.code (Char.lowercase_ascii (String.unsafe_get s i)))

let hash_ci s = hash_ci_from s 0 0

let rec has_upper s i =
  i < String.length s
  && (match String.unsafe_get s i with
     | 'A' .. 'Z' -> true
     | _ -> has_upper s (i + 1))

let lowercase s = if has_upper s 0 then String.lowercase_ascii s else s

let compare_ci a b =
  String.compare (String.lowercase_ascii a) (String.lowercase_ascii b)

let is_identifier s =
  let ok_first = function 'A' .. 'Z' | 'a' .. 'z' | '_' -> true | _ -> false in
  let ok_rest = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  String.length s > 0
  && ok_first s.[0]
  && String.for_all ok_rest (String.sub s 1 (String.length s - 1))

let common_prefix_length a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let truncate_middle ~max s =
  if max < 5 then invalid_arg "Strutil.truncate_middle: max too small";
  let n = String.length s in
  if n <= max then s
  else
    let keep = max - 3 in
    let left = (keep + 1) / 2 and right = keep / 2 in
    String.sub s 0 left ^ "..." ^ String.sub s (n - right) right
