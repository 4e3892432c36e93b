type style =
  | Full
  | First_initial
  | All_initials
  | Drop_middle
  | Concat
  | Typo of int

let initial s = Printf.sprintf "%c." s.[0]

let deterministic_typo i s =
  (* Substitute the character at a position derived from [i]; used by the
     RNG-free [render]. *)
  let n = String.length s in
  if n < 3 then s
  else begin
    let pos = 1 + (i * 7 mod (n - 2)) in
    let b = Bytes.of_string s in
    let c = Bytes.get b pos in
    let c' = if c = 'z' || c = ' ' then 'q' else Char.chr (Char.code c + 1) in
    Bytes.set b pos c';
    Bytes.to_string b
  end

let render (p : Names.person) = function
  | Full -> Names.full p
  | First_initial -> (
      match p.Names.middle with
      | Some m -> Printf.sprintf "%s %s %s" (initial p.Names.first) (initial m) p.Names.last
      | None -> Printf.sprintf "%s %s" (initial p.Names.first) p.Names.last)
  | All_initials -> (
      match p.Names.middle with
      | Some m -> Printf.sprintf "%s %s %s" (initial p.Names.first) (initial m) p.Names.last
      | None -> Printf.sprintf "%s %s" (initial p.Names.first) p.Names.last)
  | Drop_middle -> Printf.sprintf "%s %s" p.Names.first p.Names.last
  | Concat -> (
      match p.Names.middle with
      | Some m -> Printf.sprintf "%s%s %s" p.Names.first m p.Names.last
      | None -> Printf.sprintf "%s %s" p.Names.first p.Names.last)
  | Typo k ->
      let rec apply i s = if i >= k then s else apply (i + 1) (deterministic_typo i s) in
      apply 0 (Names.full p)

let random_typo rng s =
  let n = String.length s in
  if n < 3 then s
  else begin
    let pos = 1 + Random.State.int rng (n - 2) in
    let b = Bytes.of_string s in
    match Random.State.int rng 3 with
    | 0 ->
        (* substitution *)
        let c = Bytes.get b pos in
        let c' = if c = 'z' then 'a' else if c = ' ' then 'x' else Char.chr (Char.code c + 1) in
        Bytes.set b pos c';
        Bytes.to_string b
    | 1 ->
        (* deletion *)
        String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
    | _ ->
        (* transposition with the next character *)
        if pos + 1 >= n then Bytes.to_string b
        else begin
          let c = Bytes.get b pos in
          Bytes.set b pos (Bytes.get b (pos + 1));
          Bytes.set b (pos + 1) c;
          Bytes.to_string b
        end
  end

let render_with_rng rng p = function
  | Typo k ->
      let rec apply i s = if i >= k then s else apply (i + 1) (random_typo rng s) in
      apply 0 (Names.full p)
  | style -> render p style
