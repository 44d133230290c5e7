type 'a slot = { mutable value : 'a; mutable busy : bool }

type 'a t = {
  key : 'a slot Domain.DLS.key;
  create : unit -> 'a;
  clear : 'a -> unit;
  words : 'a -> int;
}

let limit_words = 16_384

let make ~create ~clear ~words =
  {
    key = Domain.DLS.new_key (fun () -> { value = create (); busy = false });
    create;
    clear;
    words;
  }

let give_back t sp =
  if t.words sp.value > limit_words then sp.value <- t.create ()
  else t.clear sp.value;
  sp.busy <- false

let use t f x y =
  let sp = Domain.DLS.get t.key in
  if sp.busy then f (t.create ()) x y
  else begin
    sp.busy <- true;
    match f sp.value x y with
    | r ->
        give_back t sp;
        r
    | exception e ->
        give_back t sp;
        raise e
  end
