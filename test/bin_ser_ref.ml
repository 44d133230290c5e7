(* The object encoder as first written: a fresh pair of hash tables and
   a fresh buffer per call, each object's bindings folded into a list
   and sorted. The library keeps its tables in a per-domain spare
   instead; this stays here as the reference its output is compared
   with, byte for byte. *)

open Pti_cts
module W = Pti_serial.Bytes_io.Writer

let magic = "PTIB\x02"
let t_null = 0
and t_bool = 1
and t_int = 2
and t_float = 3
and t_string = 4
and t_char = 5
and t_obj = 6
and t_ref = 7
and t_arr = 8

type intern = {
  w : W.t;
  names : (string, int) Hashtbl.t;
  mutable next_name : int;
  seen : (int, int) Hashtbl.t;  (* oid -> wire id *)
  mutable next_id : int;
}

let intern_name st s =
  match Hashtbl.find_opt st.names s with
  | Some i -> W.varint st.w i
  | None ->
      let i = st.next_name in
      st.next_name <- i + 1;
      Hashtbl.add st.names s i;
      W.varint st.w i;
      (* First occurrence carries the text inline. *)
      W.string st.w s

let rec strip = function Value.Vproxy p -> strip p.Value.px_target | v -> v

let rec write st v =
  match strip v with
  | Value.Vnull -> W.u8 st.w t_null
  | Value.Vbool b ->
      W.u8 st.w t_bool;
      W.bool st.w b
  | Value.Vint i ->
      W.u8 st.w t_int;
      W.zigzag st.w i
  | Value.Vfloat f ->
      W.u8 st.w t_float;
      W.f64 st.w f
  | Value.Vstring s ->
      W.u8 st.w t_string;
      W.string st.w s
  | Value.Vchar c ->
      W.u8 st.w t_char;
      W.u8 st.w (Char.code c)
  | Value.Varr a ->
      W.u8 st.w t_arr;
      W.string st.w (Ty.to_string a.Value.elem_ty);
      W.varint st.w (Array.length a.Value.items);
      Array.iter (write st) a.Value.items
  | Value.Vobj o -> (
      match Hashtbl.find_opt st.seen o.Value.oid with
      | Some id ->
          W.u8 st.w t_ref;
          W.varint st.w id
      | None ->
          let id = st.next_id in
          st.next_id <- id + 1;
          Hashtbl.add st.seen o.Value.oid id;
          W.u8 st.w t_obj;
          W.varint st.w id;
          intern_name st o.Value.cls;
          let bindings =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) o.Value.fields []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          in
          W.varint st.w (List.length bindings);
          List.iter
            (fun (k, v) ->
              intern_name st k;
              write st v)
            bindings)
  | Value.Vproxy _ -> assert false

let encode v =
  let st =
    {
      w = W.create ();
      names = Hashtbl.create 16;
      next_name = 0;
      seen = Hashtbl.create 16;
      next_id = 0;
    }
  in
  write st v;
  Pti_serial.Bytes_io.seal ~magic st.w
