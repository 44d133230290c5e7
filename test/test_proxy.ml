(* Tests for dynamic proxies: translation, permutation, recursive wrapping,
   optimistic forwarding and the failure modes of weakened rules. *)

open Pti_cts
module Td = Pti_typedesc.Type_description
module Checker = Pti_conformance.Checker
module Config = Pti_conformance.Config
module Mapping = Pti_conformance.Mapping
module Proxy = Pti_proxy.Dynamic_proxy
module Demo = Pti_demo.Demo_types

let registry =
  Demo.fresh_registry
    [
      Demo.news_assembly (); Demo.social_assembly (); Demo.trap_assembly ();
      Demo.printer_assembly (); Demo.printsvc_assembly ();
    ]

let resolver = Td.registry_resolver registry
let checker = Checker.create ~resolver ()
let cx = Proxy.create_context registry checker

let desc name = Option.get (resolver name)

let mapping ~actual ~interest =
  match Checker.check checker ~actual:(desc actual) ~interest:(desc interest) with
  | Checker.Conformant m -> m
  | Checker.Not_conformant _ -> Alcotest.failf "%s !<= %s" actual interest

let get_string = function
  | Value.Vstring s -> s
  | v -> Alcotest.failf "expected string, got %s" (Value.type_name v)

let get_int = function
  | Value.Vint i -> i
  | v -> Alcotest.failf "expected int, got %s" (Value.type_name v)

let social_as_news name age =
  let target = Demo.make_social_person registry ~name ~age in
  let m = mapping ~actual:Demo.social_person ~interest:Demo.news_person in
  Proxy.wrap cx ~interest:Demo.news_person ~mapping:m target

let test_renaming_dispatch () =
  let p = social_as_news "Zoe" 28 in
  Alcotest.(check string) "getName -> getname" "Zoe"
    (Eval.call registry p "getName" [] |> get_string);
  Alcotest.(check int) "getAge -> GETAGE" 28
    (Eval.call registry p "getAge" [] |> get_int);
  ignore (Eval.call registry p "setName" [ Value.Vstring "Zo" ]);
  Alcotest.(check string) "setName effect visible" "Zo"
    (Eval.call registry p "getName" [] |> get_string)

let test_proxy_type_name () =
  let p = social_as_news "Q" 1 in
  Alcotest.(check bool) "is_proxy" true (Proxy.is_proxy p);
  Alcotest.(check string) "type name advertises interest"
    ("proxy<" ^ Demo.news_person ^ ">")
    (Value.type_name p)

let test_unwrap () =
  let target = Demo.make_social_person registry ~name:"U" ~age:2 in
  let m = mapping ~actual:Demo.social_person ~interest:Demo.news_person in
  let p = Proxy.wrap cx ~interest:Demo.news_person ~mapping:m target in
  Alcotest.(check bool) "unwrap returns target" true
    (match Proxy.unwrap p, target with
    | Value.Vobj a, Value.Vobj b -> a == b
    | _ -> false)

let test_recursive_return_wrapping () =
  (* getSpouse returns a socialw.person; through the proxy the caller sees
     it as a newsw.Person and keeps using news vocabulary. *)
  let alice = Demo.make_social_person registry ~name:"Alice" ~age:30 in
  let bob = Demo.make_social_person registry ~name:"Bob" ~age:31 in
  ignore (Eval.call registry alice "setspouse" [ bob ]);
  let m = mapping ~actual:Demo.social_person ~interest:Demo.news_person in
  let p = Proxy.wrap cx ~interest:Demo.news_person ~mapping:m alice in
  let spouse = Eval.call registry p "getSpouse" [] in
  Alcotest.(check bool) "spouse is proxied" true (Proxy.is_proxy spouse);
  Alcotest.(check string) "news vocabulary works on spouse" "Bob"
    (Eval.call registry spouse "getName" [] |> get_string)

let test_recursive_argument_wrapping () =
  (* setSpouse receives a newsw.Person object but the target is social:
     the argument must be re-wrapped so the social code can call getname
     etc. on it. *)
  let social = Demo.make_social_person registry ~name:"S" ~age:9 in
  let m = mapping ~actual:Demo.social_person ~interest:Demo.news_person in
  let p = Proxy.wrap cx ~interest:Demo.news_person ~mapping:m social in
  let news_spouse = Demo.make_news_person registry ~name:"N" ~age:8 in
  ignore (Eval.call registry p "setSpouse" [ news_spouse ]);
  let spouse_back = Eval.call registry p "getSpouse" [] in
  (* Coming back out it is presented as newsw.Person again. *)
  Alcotest.(check string) "argument survived translation" "N"
    (Eval.call registry spouse_back "getName" [] |> get_string)

let test_argument_permutation_via_ctor_types () =
  (* Method-level permutation: interest combine(string,int), actual has
     COMBINE(int,string). *)
  let module B = Builder in
  let module E = Expr in
  let a =
    B.class_ ~ns:[ "px" ] ~assembly:"px" "Fmt"
    |> B.method_ "combine" [ ("s", Ty.String); ("n", Ty.Int) ] Ty.String
         ~body:(E.str "unused")
    |> B.build
  in
  let b =
    B.class_ ~ns:[ "py" ] ~assembly:"py" "fmt"
    |> B.method_ "COMBINE" [ ("n", Ty.Int); ("s", Ty.String) ] Ty.String
         ~body:
           (E.Binop
              (E.Concat, E.Var "s", E.Call (E.Var "n", "toString", [])))
    |> B.build
  in
  let r2 = Registry.create () in
  Registry.register r2 a;
  Registry.register r2 b;
  let res = Td.registry_resolver r2 in
  let ch = Checker.create ~resolver:res () in
  let cx2 = Proxy.create_context r2 ch in
  let m =
    match
      Checker.check ch ~actual:(Option.get (res "py.fmt"))
        ~interest:(Option.get (res "px.Fmt"))
    with
    | Checker.Conformant m -> m
    | Checker.Not_conformant _ -> Alcotest.fail "fmt should conform"
  in
  let target = Eval.construct r2 "py.fmt" [] in
  let p = Proxy.wrap cx2 ~interest:"px.Fmt" ~mapping:m target in
  (* Caller passes (string, int); target expects (int, string). *)
  let out =
    Eval.call r2 p "combine" [ Value.Vstring "n="; Value.Vint 7 ]
    |> get_string
  in
  Alcotest.(check string) "permuted call" "n=7" out

let test_identity_mapping_forwards () =
  let target = Demo.make_news_person registry ~name:"Id" ~age:3 in
  let m =
    Mapping.identity_mapping ~interest:Demo.news_person
      ~actual:Demo.news_person
  in
  let p = Proxy.wrap cx ~interest:Demo.news_person ~mapping:m target in
  Alcotest.(check string) "identity forwards" "Id"
    (Eval.call registry p "getName" [] |> get_string);
  (* Even methods outside any mapping forward under identity. *)
  Alcotest.(check string) "greet forwards" "Hello, Id"
    (Eval.call registry p "greet" [] |> get_string)

let test_weak_rules_trap_explodes_at_runtime () =
  (* A name-only conformance produces an empty method mapping over the
     trap type; invocation falls through to optimistic forwarding and hits
     a missing method — the §4.2 safety failure E6 measures. *)
  let weak = Checker.create ~config:Config.name_only ~resolver () in
  let m =
    match
      Checker.check weak ~actual:(desc Demo.trap_person)
        ~interest:(desc Demo.news_person)
    with
    | Checker.Conformant m -> m
    | Checker.Not_conformant _ ->
        Alcotest.fail "name-only should accept the trap"
  in
  let trap = Demo.make_trap_person registry in
  let p = Proxy.wrap cx ~interest:Demo.news_person ~mapping:m trap in
  match Eval.call registry p "getName" [] with
  | _ -> Alcotest.fail "trap should fail at runtime"
  | exception Eval.Runtime_error _ -> ()

let test_coerce () =
  let social = Demo.make_social_person registry ~name:"C" ~age:4 in
  (* Coercing to a conformant interest wraps. *)
  let p = Proxy.coerce cx ~interest:Demo.news_person social in
  Alcotest.(check bool) "wrapped" true (Proxy.is_proxy p);
  (* Coercing to its own type is the identity. *)
  let same = Proxy.coerce cx ~interest:Demo.social_person social in
  Alcotest.(check bool) "no wrap needed" false (Proxy.is_proxy same);
  (* Primitives pass through. *)
  Alcotest.(check bool) "primitive passthrough" true
    (Proxy.coerce cx ~interest:Demo.news_person (Value.Vint 5) = Value.Vint 5);
  (* Non-conformant coercion raises. *)
  let trap = Demo.make_trap_person registry in
  match Proxy.coerce cx ~interest:Demo.printer trap with
  | _ -> Alcotest.fail "non-conformant coerce should raise"
  | exception Eval.Runtime_error _ -> ()

let test_double_wrapping_collapses () =
  (* Wrapping a proxy that already presents the interest is a no-op in
     coerce. *)
  let p = social_as_news "W" 6 in
  let p2 = Proxy.coerce cx ~interest:Demo.news_person p in
  Alcotest.(check bool) "same proxy" true (p == p2)

let test_construct_as () =
  (* Build a socialw.person through the newsw.Person constructor signature
     (name, age) -- rule (v)'s witness permutes into social's (age, name). *)
  let p =
    Proxy.construct_as cx ~interest:Demo.news_person
      ~actual:Demo.social_person
      [ Value.Vstring "Built"; Value.Vint 27 ]
  in
  Alcotest.(check bool) "wrapped" true (Proxy.is_proxy p);
  Alcotest.(check string) "name landed in the right slot" "Built"
    (Eval.call registry p "getName" [] |> get_string);
  Alcotest.(check int) "age landed in the right slot" 27
    (Eval.call registry p "getAge" [] |> get_int);
  (* Identity construction returns a bare object. *)
  let same =
    Proxy.construct_as cx ~interest:Demo.news_person ~actual:Demo.news_person
      [ Value.Vstring "Plain"; Value.Vint 1 ]
  in
  Alcotest.(check bool) "no proxy for identity" false (Proxy.is_proxy same);
  (* Non-conformant target refuses. *)
  (match
     Proxy.construct_as cx ~interest:Demo.news_person ~actual:Demo.trap_person
       [ Value.Vstring "x"; Value.Vint 0 ]
   with
  | _ -> Alcotest.fail "trap must not construct as Person"
  | exception Eval.Runtime_error _ -> ());
  (* Wrong arity refuses. *)
  match
    Proxy.construct_as cx ~interest:Demo.news_person ~actual:Demo.social_person
      [ Value.Vstring "only-one" ]
  with
  | _ -> Alcotest.fail "bad arity must refuse"
  | exception Eval.Runtime_error _ -> ()

let test_ctor_mapping_recorded () =
  let m = mapping ~actual:Demo.social_person ~interest:Demo.news_person in
  match Mapping.find_ctor m ~arity:2 with
  | None -> Alcotest.fail "ctor/2 witness missing"
  | Some cm ->
      (* social ctor is (int, string); interest is (string, int). *)
      Alcotest.(check (array int)) "permutation" [| 1; 0 |] cm.Mapping.cm_perm

let test_proxy_overhead_exists_but_small () =
  (* Sanity for E1: proxy call must cost more than a direct call, but stay
     within a couple orders of magnitude. *)
  let direct = Demo.make_social_person registry ~name:"T" ~age:1 in
  let p = social_as_news "T" 1 in
  let time f =
    let t0 = Sys.time () in
    for _ = 1 to 50_000 do
      ignore (f ())
    done;
    Sys.time () -. t0
  in
  (* The best of seven interleaved rounds: the proxy's margin over a
     direct call is a few tens of percent, well inside one round's
     scheduling noise on a shared host. *)
  let best = Array.make 2 infinity in
  for _ = 1 to 7 do
    best.(0) <- Float.min best.(0) (time (fun () -> Eval.call registry direct "getname" []));
    best.(1) <- Float.min best.(1) (time (fun () -> Eval.call registry p "getName" []))
  done;
  let td = best.(0) and tp = best.(1) in
  Alcotest.(check bool) "proxy slower than direct" true (tp > td);
  Alcotest.(check bool) "but not absurdly slower" true (tp < td *. 1000.)

let () =
  Alcotest.run "proxy"
    [
      ( "dispatch",
        [
          Alcotest.test_case "renaming" `Quick test_renaming_dispatch;
          Alcotest.test_case "type name" `Quick test_proxy_type_name;
          Alcotest.test_case "unwrap" `Quick test_unwrap;
          Alcotest.test_case "recursive returns" `Quick
            test_recursive_return_wrapping;
          Alcotest.test_case "recursive arguments" `Quick
            test_recursive_argument_wrapping;
          Alcotest.test_case "argument permutation" `Quick
            test_argument_permutation_via_ctor_types;
          Alcotest.test_case "identity forwarding" `Quick
            test_identity_mapping_forwards;
          Alcotest.test_case "construct_as" `Quick test_construct_as;
          Alcotest.test_case "ctor mapping recorded" `Quick
            test_ctor_mapping_recorded;
        ] );
      ( "safety",
        [
          Alcotest.test_case "weak rules explode at runtime" `Quick
            test_weak_rules_trap_explodes_at_runtime;
          Alcotest.test_case "coerce" `Quick test_coerce;
          Alcotest.test_case "double wrapping collapses" `Quick
            test_double_wrapping_collapses;
        ] );
      ( "performance",
        [
          Alcotest.test_case "overhead sanity" `Quick
            test_proxy_overhead_exists_but_small;
        ] );
    ]
