type event =
  | Start_element of { tag : string; attrs : (string * string) list }
  | End_element of string
  | Text of string

let wrap f =
  try Ok (f ())
  with Lexer.Lex_error { line; column; message } ->
    Error { Parser.line; column; message }

(* Drive the scanner, firing [f] per event; [stop] short-circuits. *)
exception Stop

let run ?keep_whitespace input ~init ~f ~stop =
  wrap (fun () ->
      let st = Lexer.make ?keep_whitespace input in
      Lexer.skip_prolog st;
      let acc = ref init in
      let emit event =
        acc := f !acc event;
        if stop !acc then raise Stop
      in
      let buf = Buffer.create 32 in
      let flush_text () =
        if Buffer.length buf > 0 then begin
          let s = Buffer.contents buf in
          Buffer.clear buf;
          if Lexer.keep_whitespace st || not (Lexer.is_blank s) then emit (Text s)
        end
      in
      (* Stack of open tags; empty after the root closes. *)
      let rec element () =
        Lexer.expect st "<";
        let tag = Lexer.name st in
        let attrs = Lexer.attributes st in
        Lexer.skip_whitespace st;
        if Lexer.looking_at st "/>" then begin
          Lexer.expect st "/>";
          emit (Start_element { tag; attrs });
          emit (End_element tag)
        end
        else begin
          Lexer.expect st ">";
          emit (Start_element { tag; attrs });
          content tag;
          emit (End_element tag)
        end
      and content tag =
        if Lexer.eof st then
          Lexer.fail st (Printf.sprintf "unterminated element <%s>" tag)
        else if Lexer.looking_at st "</" then begin
          flush_text ();
          Lexer.expect st "</";
          let closing = Lexer.name st in
          if closing <> tag then
            Lexer.fail st
              (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing tag);
          Lexer.skip_whitespace st;
          Lexer.expect st ">"
        end
        else if Lexer.looking_at st "<!--" then begin
          Lexer.skip_comment st;
          content tag
        end
        else if Lexer.looking_at st "<![CDATA[" then begin
          Buffer.add_string buf (Lexer.cdata st);
          content tag
        end
        else if Lexer.peek st = '<' then begin
          flush_text ();
          element ();
          content tag
        end
        else if Lexer.peek st = '&' then begin
          Buffer.add_string buf (Lexer.entity st);
          content tag
        end
        else begin
          Buffer.add_char buf (Lexer.peek st);
          Lexer.advance st;
          content tag
        end
      in
      (try
         element ();
         Lexer.skip_trailing st
       with Stop -> ());
      !acc)

type 'a builder_state = {
  matched : Tree.t list;  (** completed matches, reversed *)
  stack : (string * (string * string) list * Tree.t list) list;
      (** open elements inside a match, children reversed *)
  remaining : int;
}

let trees_where ?(limit = max_int) p input =
  let step st event =
    match (event, st.stack) with
    | Start_element { tag; attrs }, [] ->
        if p tag && st.remaining > 0 then
          { st with stack = [ (tag, attrs, []) ] }
        else st
    | Start_element { tag; attrs }, stack -> { st with stack = (tag, attrs, []) :: stack }
    | Text s, (tag, attrs, children) :: rest ->
        { st with stack = (tag, attrs, Tree.text s :: children) :: rest }
    | Text _, [] -> st
    | End_element _, [] -> st
    | End_element _, [ (tag, attrs, children) ] ->
        {
          matched = Tree.element ~attrs tag (List.rev children) :: st.matched;
          stack = [];
          remaining = st.remaining - 1;
        }
    | End_element _, (tag, attrs, children) :: (ptag, pattrs, pchildren) :: rest ->
        {
          st with
          stack =
            (ptag, pattrs, Tree.element ~attrs tag (List.rev children) :: pchildren)
            :: rest;
        }
  in
  Result.map
    (fun st -> List.rev st.matched)
    (run input
       ~init:{ matched = []; stack = []; remaining = limit }
       ~f:step
       ~stop:(fun st -> st.remaining <= 0 && st.stack = []))
