(* Tests for the shared JSON module: the writer and its round-trip
   contract with the reader. The reader itself is covered by test_eval,
   next to the bench baselines it was first written for. *)

module J = Toss_json

let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

let test_escape () =
  checks "plain" "abc" (J.escape "abc");
  checks "quote" "say \\\"hi\\\"" (J.escape "say \"hi\"");
  checks "backslash" "a\\\\b" (J.escape "a\\b");
  checks "newline tab cr" "a\\nb\\tc\\rd" (J.escape "a\nb\tc\rd");
  checks "control as unicode" "\\u0000\\u001f" (J.escape "\x00\x1f");
  checks "utf8 passthrough" "caf\xc3\xa9" (J.escape "caf\xc3\xa9");
  checks "quoted" "\"a\\\"b\"" (J.quote "a\"b")

let test_to_string () =
  checks "null" "null" (J.to_string J.Null);
  checks "bools" "[true,false]" (J.to_string (J.Arr [ J.Bool true; J.Bool false ]));
  checks "integral floats have no point" "42" (J.to_string (J.Num 42.));
  checks "negative zero is zero" "-0" (J.to_string (J.Num (-0.)));
  checks "fractional" "1.5" (J.to_string (J.Num 1.5));
  checks "non-finite is null" "[null,null,null]"
    (J.to_string (J.Arr [ J.Num nan; J.Num infinity; J.Num neg_infinity ]));
  checks "empty obj" "{}" (J.to_string (J.Obj []));
  checks "nested"
    "{\"a\":[1,{\"b\":\"x\\ny\"}]}"
    (J.to_string
       (J.Obj [ ("a", J.Arr [ J.Num 1.; J.Obj [ ("b", J.Str "x\ny") ] ]) ]));
  checks "member order preserved" "{\"z\":1,\"a\":2}"
    (J.to_string (J.Obj [ ("z", J.Num 1.); ("a", J.Num 2.) ]))

let test_roundtrip () =
  let values =
    [
      J.Null;
      J.Bool true;
      J.Num 0.;
      J.Num (-17.);
      J.Num 3.141592653589793;
      J.Num 1e-9;
      J.Num 1e20;
      J.Str "";
      J.Str "with \"quotes\" and \\slashes\\ and \n newlines";
      J.Str "control \x01 char";
      J.Arr [];
      J.Obj [];
      J.Obj
        [
          ("trees", J.Arr [ J.Str "<a b=\"c\">x &amp; y</a>" ]);
          ("count", J.Num 1.);
          ("nested", J.Obj [ ("deep", J.Arr [ J.Null; J.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = J.to_string v in
      match J.parse s with
      | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" s msg)
      | Ok v' -> checkb (Printf.sprintf "round-trip %s" s) true (v = v'))
    values

let prop_roundtrip =
  (* Random value trees: to_string and parse must be inverses. *)
  let gen =
    QCheck2.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                return J.Null;
                map (fun b -> J.Bool b) bool;
                map (fun f -> J.Num f) (float_bound_inclusive 1e6);
                map (fun i -> J.Num (float_of_int i)) (int_range (-1000) 1000);
                map (fun s -> J.Str s) (string_size (int_range 0 12));
              ]
          in
          if n <= 0 then leaf
          else
            oneof
              [
                leaf;
                map (fun l -> J.Arr l) (list_size (int_range 0 4) (self (n / 2)));
                map
                  (fun l -> J.Obj l)
                  (list_size (int_range 0 4)
                     (pair (string_size (int_range 0 6)) (self (n / 2))));
              ]))
  in
  QCheck2.Test.make ~count:200 ~name:"to_string/parse round-trip" gen (fun v ->
      J.parse (J.to_string v) = Ok v)

let test_unicode_escapes () =
  let ok input expect =
    match J.parse input with
    | Ok (J.Str got) -> checks input expect got
    | Ok _ -> Alcotest.fail (input ^ ": decoded to a non-string")
    | Error msg -> Alcotest.fail (input ^ ": " ^ msg)
  in
  let rejected input =
    checkb (input ^ " rejected") true (Result.is_error (J.parse input))
  in
  ok {|"\u0041"|} "A";
  ok {|"\u00e9"|} "\xc3\xa9";
  ok {|"\u20ac"|} "\xe2\x82\xac";
  (* A surrogate pair decodes to one 4-byte UTF-8 sequence, not two
     3-byte surrogate code points (CESU-8). *)
  ok {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80";
  ok {|"\ud834\udd1e"|} "\xf0\x9d\x84\x9e";
  ok {|"a\ud83d\ude00b"|} "a\xf0\x9f\x98\x80b";
  (* lone high surrogate *)
  rejected {|"\ud83d"|};
  rejected {|"\ud83dxxxx"|};
  (* high surrogate paired with a non-low escape *)
  rejected {|"\ud83dA"|};
  (* lone low surrogate *)
  rejected {|"\ude00"|};
  (* int_of_string would admit underscores *)
  rejected {|"\u1_2f"|};
  rejected {|"\u-123"|};
  rejected {|"\u12"|}

let test_accessors () =
  let v = J.parse_exn {|{"a": 1, "b": [true, "x"], "a": 2}|} in
  checkb "first duplicate wins" true (Option.bind (J.member "a" v) J.to_int = Some 1);
  checkb "missing member" true (J.member "zz" v = None);
  checkb "to_int truncates" true (J.to_int (J.Num 3.9) = Some 3);
  checkb "to_int on non-num" true (J.to_int (J.Str "3") = None)

let () =
  Alcotest.run "toss_json"
    [
      ( "writer",
        [
          Alcotest.test_case "escape" `Quick test_escape;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
          Alcotest.test_case "accessors" `Quick test_accessors;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
    ]
