module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition

type target = Select of int list | Project of int list

type t = { pattern : Pattern.t; target : target }

exception Error of string

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

type token =
  | Hash of int  (** #12 *)
  | Ident of string  (** keyword or operator word; lowercased *)
  | String_lit of string
  | Number of string
  | Lparen
  | Rparen
  | Comma
  | Colon
  | Dot
  | Slash
  | Dslash
  | Op of string  (** = != <= >= < > ~ *)

let lex input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  let push t = tokens := t :: !tokens in
  let peek k = if !i + k < n then input.[!i + k] else '\000' in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '#' then begin
      incr i;
      let start = !i in
      while !i < n && input.[!i] >= '0' && input.[!i] <= '9' do
        incr i
      done;
      if !i = start then raise (Error "expected a label number after #");
      push (Hash (int_of_string (String.sub input start (!i - start))))
    end
    else if c = '"' then begin
      incr i;
      let buf = Buffer.create 16 in
      while !i < n && input.[!i] <> '"' do
        if input.[!i] = '\\' && !i + 1 < n then begin
          Buffer.add_char buf input.[!i + 1];
          i := !i + 2
        end
        else begin
          Buffer.add_char buf input.[!i];
          incr i
        end
      done;
      if !i >= n then raise (Error "unterminated string literal");
      incr i;
      push (String_lit (Buffer.contents buf))
    end
    else if (c >= '0' && c <= '9') || (c = '-' && peek 1 >= '0' && peek 1 <= '9')
    then begin
      let start = !i in
      incr i;
      while
        !i < n
        && ((input.[!i] >= '0' && input.[!i] <= '9') || input.[!i] = '.')
      do
        incr i
      done;
      push (Number (String.sub input start (!i - start)))
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !i in
      while
        !i < n
        && ((input.[!i] >= 'a' && input.[!i] <= 'z')
           || (input.[!i] >= 'A' && input.[!i] <= 'Z')
           || (input.[!i] >= '0' && input.[!i] <= '9')
           || input.[!i] = '_' || input.[!i] = '-')
      do
        incr i
      done;
      push (Ident (String.lowercase_ascii (String.sub input start (!i - start))))
    end
    else begin
      (match c with
      | '(' -> push Lparen
      | ')' -> push Rparen
      | ',' -> push Comma
      | ':' -> push Colon
      | '.' -> push Dot
      | '/' ->
          if peek 1 = '/' then begin
            push Dslash;
            incr i
          end
          else push Slash
      | '=' -> push (Op "=")
      | '~' -> push (Op "~")
      | '!' ->
          if peek 1 = '=' then begin
            push (Op "!=");
            incr i
          end
          else raise (Error "unexpected '!'")
      | '<' ->
          if peek 1 = '=' then begin
            push (Op "<=");
            incr i
          end
          else push (Op "<")
      | '>' ->
          if peek 1 = '=' then begin
            push (Op ">=");
            incr i
          end
          else push (Op ">")
      | c -> raise (Error (Printf.sprintf "unexpected character %C" c)));
      incr i
    end
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

type state = { mutable tokens : token list }

let peek st = match st.tokens with t :: _ -> Some t | [] -> None

let advance st =
  match st.tokens with
  | t :: rest ->
      st.tokens <- rest;
      t
  | [] -> raise (Error "unexpected end of query")

let expect st tok msg = if advance st <> tok then raise (Error ("expected " ^ msg))

let expect_ident st kw =
  match advance st with
  | Ident id when id = kw -> ()
  | _ -> raise (Error ("expected keyword " ^ String.uppercase_ascii kw))

(* MATCH tree: #n[:tag] [ '(' ('/'|'//') node (',' ('/'|'//') node)* ')' ] *)
let rec parse_node st shorthands =
  let label =
    match advance st with
    | Hash l -> l
    | _ -> raise (Error "expected #label in MATCH")
  in
  (match peek st with
  | Some Colon -> (
      ignore (advance st);
      match advance st with
      | Ident tag -> shorthands := Condition.tag_eq label tag :: !shorthands
      | String_lit tag -> shorthands := Condition.tag_eq label tag :: !shorthands
      | _ -> raise (Error "expected a tag after ':'"))
  | _ -> ());
  let children = ref [] in
  (match peek st with
  | Some Lparen ->
      ignore (advance st);
      let rec child () =
        let kind =
          match advance st with
          | Slash -> Pattern.Pc
          | Dslash -> Pattern.Ad
          | _ -> raise (Error "expected / or // before a child pattern")
        in
        let node = parse_node st shorthands in
        children := (kind, node) :: !children;
        match advance st with
        | Comma -> child ()
        | Rparen -> ()
        | _ -> raise (Error "expected ',' or ')' in MATCH")
      in
      child ()
  | _ -> ());
  Pattern.node label (List.rev !children)

(* WHERE terms and atoms. *)
let parse_term st =
  match advance st with
  | Hash label -> (
      expect st Dot "'.' after #label";
      match advance st with
      | Ident "tag" -> Condition.Tag label
      | Ident "content" -> Condition.Content label
      | _ -> raise (Error "expected .tag or .content"))
  | String_lit s -> Condition.Str s
  | Number x -> Condition.Str x
  | _ -> raise (Error "expected a term (#n.tag, #n.content, string, or number)")

let binary_of_ident name x y =
  match name with
  | "isa" -> Condition.Isa (x, y)
  | "part_of" | "partof" -> Condition.Part_of (x, y)
  | "instance_of" | "instanceof" -> Condition.Instance_of (x, y)
  | "subtype_of" | "subtypeof" -> Condition.Subtype_of (x, y)
  | "below" -> Condition.Below (x, y)
  | "above" -> Condition.Above (x, y)
  | _ -> raise (Error ("unknown operator " ^ name))

let cmp_of_op = function
  | "=" -> Condition.Eq
  | "!=" -> Condition.Neq
  | "<=" -> Condition.Le
  | ">=" -> Condition.Ge
  | "<" -> Condition.Lt
  | ">" -> Condition.Gt
  | op -> raise (Error ("unknown comparison " ^ op))

let rec parse_or st =
  let left = parse_and st in
  match peek st with
  | Some (Ident "or") ->
      ignore (advance st);
      Condition.Or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_unary st in
  match peek st with
  | Some (Ident "and") ->
      ignore (advance st);
      Condition.And (left, parse_and st)
  | _ -> left

and parse_unary st =
  match peek st with
  | Some (Ident "not") ->
      ignore (advance st);
      expect st Lparen "'(' after NOT";
      let inner = parse_or st in
      expect st Rparen "')'";
      Condition.Not inner
  | Some Lparen ->
      ignore (advance st);
      let inner = parse_or st in
      expect st Rparen "')'";
      inner
  | Some (Ident "true") ->
      ignore (advance st);
      Condition.True
  | Some (Ident "contains") ->
      ignore (advance st);
      expect st Lparen "'(' after contains";
      let term = parse_term st in
      expect st Comma "','";
      let s =
        match advance st with
        | String_lit s -> s
        | Number x -> x
        | _ -> raise (Error "expected a string in contains()")
      in
      expect st Rparen "')'";
      Condition.Contains (term, s)
  | _ -> parse_atom st

and parse_atom st =
  let x = parse_term st in
  match advance st with
  | Op "~" -> Condition.Sim (x, parse_term st)
  | Op op -> Condition.Cmp (x, cmp_of_op op, parse_term st)
  | Ident name -> binary_of_ident name x (parse_term st)
  | _ -> raise (Error "expected an operator")

let parse_labels st =
  let rec go acc =
    match advance st with
    | Hash l -> (
        match peek st with
        | Some Comma ->
            ignore (advance st);
            go (l :: acc)
        | _ -> List.rev (l :: acc))
    | _ -> raise (Error "expected #label")
  in
  go []

let parse_exn input =
  let st = { tokens = lex input } in
  expect_ident st "match";
  let shorthands = ref [] in
  let root = parse_node st shorthands in
  let where =
    match peek st with
    | Some (Ident "where") ->
        ignore (advance st);
        Some (parse_or st)
    | _ -> None
  in
  let target =
    match peek st with
    | Some (Ident "select") ->
        ignore (advance st);
        Select (parse_labels st)
    | Some (Ident "project") ->
        ignore (advance st);
        Project (parse_labels st)
    | None -> Select []
    | Some _ -> raise (Error "expected WHERE, SELECT, PROJECT or end of query")
  in
  if st.tokens <> [] then raise (Error "trailing input after the query");
  let condition =
    Condition.conj (List.rev !shorthands @ Option.to_list where)
  in
  let pattern =
    try Pattern.v root condition
    with Invalid_argument msg -> raise (Error msg)
  in
  { pattern; target }

let parse input =
  match parse_exn input with
  | t -> Ok t
  | exception Error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Printer                                                              *)
(* ------------------------------------------------------------------ *)

let term_to_string = function
  | Condition.Tag i -> Printf.sprintf "#%d.tag" i
  | Condition.Content i -> Printf.sprintf "#%d.content" i
  | Condition.Str s -> Printf.sprintf "%S" s

let rec condition_to_string = function
  | Condition.True -> "TRUE"
  | Condition.Cmp (x, c, y) ->
      let op =
        match c with
        | Condition.Eq -> "=" | Condition.Neq -> "!=" | Condition.Le -> "<="
        | Condition.Ge -> ">=" | Condition.Lt -> "<" | Condition.Gt -> ">"
      in
      Printf.sprintf "%s %s %s" (term_to_string x) op (term_to_string y)
  | Condition.Contains (x, s) ->
      Printf.sprintf "CONTAINS(%s, %S)" (term_to_string x) s
  | Condition.Sim (x, y) -> Printf.sprintf "%s ~ %s" (term_to_string x) (term_to_string y)
  | Condition.Isa (x, y) ->
      Printf.sprintf "%s isa %s" (term_to_string x) (term_to_string y)
  | Condition.Part_of (x, y) ->
      Printf.sprintf "%s part_of %s" (term_to_string x) (term_to_string y)
  | Condition.Instance_of (x, y) ->
      Printf.sprintf "%s instance_of %s" (term_to_string x) (term_to_string y)
  | Condition.Subtype_of (x, y) ->
      Printf.sprintf "%s subtype_of %s" (term_to_string x) (term_to_string y)
  | Condition.Below (x, y) ->
      Printf.sprintf "%s below %s" (term_to_string x) (term_to_string y)
  | Condition.Above (x, y) ->
      Printf.sprintf "%s above %s" (term_to_string x) (term_to_string y)
  | Condition.And (p, q) ->
      Printf.sprintf "(%s AND %s)" (condition_to_string p) (condition_to_string q)
  | Condition.Or (p, q) ->
      Printf.sprintf "(%s OR %s)" (condition_to_string p) (condition_to_string q)
  | Condition.Not p -> Printf.sprintf "NOT (%s)" (condition_to_string p)

let rec node_to_string (n : Pattern.node) =
  match n.Pattern.children with
  | [] -> Printf.sprintf "#%d" n.Pattern.label
  | cs ->
      Printf.sprintf "#%d(%s)" n.Pattern.label
        (String.concat ", "
           (List.map
              (fun (kind, c) ->
                (match kind with Pattern.Pc -> "/" | Pattern.Ad -> "//")
                ^ node_to_string c)
              cs))

let to_string t =
  let buf = Buffer.create 128 in
  Buffer.add_string buf ("MATCH " ^ node_to_string t.pattern.Pattern.root);
  (match t.pattern.Pattern.condition with
  | Condition.True -> ()
  | c -> Buffer.add_string buf ("\nWHERE " ^ condition_to_string c));
  (match t.target with
  | Select [] -> ()
  | Select ls ->
      Buffer.add_string buf
        ("\nSELECT " ^ String.concat ", " (List.map (Printf.sprintf "#%d") ls))
  | Project ls ->
      Buffer.add_string buf
        ("\nPROJECT " ^ String.concat ", " (List.map (Printf.sprintf "#%d") ls)));
  Buffer.contents buf
