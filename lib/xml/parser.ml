type error = { line : int; column : int; message : string }

exception Parse_error of error

let pp_error ppf e =
  Format.fprintf ppf "line %d, column %d: %s" e.line e.column e.message

let wrap f =
  try f ()
  with Lexer.Lex_error { line; column; message } ->
    raise (Parse_error { line; column; message })

let rec parse_element st =
  Lexer.expect st "<";
  let tag = Lexer.name st in
  let attrs = Lexer.attributes st in
  Lexer.skip_whitespace st;
  if Lexer.looking_at st "/>" then begin
    Lexer.expect st "/>";
    Tree.element ~attrs tag []
  end
  else begin
    Lexer.expect st ">";
    let children = parse_content st tag in
    Tree.element ~attrs tag children
  end

and parse_content st tag =
  let children = ref [] in
  let buf = Buffer.create 32 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      let s = Buffer.contents buf in
      Buffer.clear buf;
      if Lexer.keep_whitespace st || not (Lexer.is_blank s) then
        children := Tree.text s :: !children
    end
  in
  let rec go () =
    if Lexer.eof st then
      Lexer.fail st (Printf.sprintf "unterminated element <%s>" tag)
    else if Lexer.looking_at st "</" then begin
      flush_text ();
      Lexer.expect st "</";
      let closing = Lexer.name st in
      if closing <> tag then
        Lexer.fail st (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing tag);
      Lexer.skip_whitespace st;
      Lexer.expect st ">"
    end
    else if Lexer.looking_at st "<!--" then begin
      Lexer.skip_comment st;
      go ()
    end
    else if Lexer.looking_at st "<![CDATA[" then begin
      Buffer.add_string buf (Lexer.cdata st);
      go ()
    end
    else if Lexer.peek st = '<' then begin
      flush_text ();
      children := parse_element st :: !children;
      go ()
    end
    else if Lexer.peek st = '&' then begin
      Buffer.add_string buf (Lexer.entity st);
      go ()
    end
    else begin
      Buffer.add_char buf (Lexer.peek st);
      Lexer.advance st;
      go ()
    end
  in
  go ();
  List.rev !children

let parse_exn ?keep_whitespace input =
  wrap (fun () ->
      let st = Lexer.make ?keep_whitespace input in
      Lexer.skip_prolog st;
      let root = parse_element st in
      Lexer.skip_trailing st;
      root)

let parse ?keep_whitespace input =
  match parse_exn ?keep_whitespace input with
  | tree -> Ok tree
  | exception Parse_error e -> Error e
