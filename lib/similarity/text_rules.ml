let abbrev_cost = 0.5
let typo_unit = 1.1
let mismatch_cost = 5.0

(* Dropping a whole token is almost as bad as a mismatch: "web conference"
   must NOT come out close to "conference", or the similarity enhancement
   of any isa hierarchy containing both becomes cyclic (similarity
   inconsistent). Abbreviations keep the token count, so this does not
   penalize the proceedings-page renderings. *)
let skip_cost = 3.5

(* Tokenize keeping the trailing '.' marker meaningful: "eff." abbreviates
   "efficient". The generic tokenizer drops punctuation, so detect
   abbreviations by prefix relation on the alphanumeric token instead. *)
let is_abbreviation ~short ~long =
  short <> long
  && String.length short >= 2
  && String.length short < String.length long
  && String.sub long 0 (String.length short) = short

let token_cost a b =
  if a = b then 0.
  else if is_abbreviation ~short:a ~long:b || is_abbreviation ~short:b ~long:a then
    abbrev_cost
  else
    let lev = Levenshtein.distance a b in
    if lev <= 2 && min (String.length a) (String.length b) >= 3 then
      typo_unit *. float_of_int lev
    else mismatch_cost

(* Token alignment DP; [cutoff] aborts with infinity as soon as a full DP
   row exceeds it (distances only grow along rows), which makes threshold
   tests on clearly-different phrases cheap. *)
let alignment ?cutoff x y =
  let xs = Array.of_list (Token.tokenize x) in
  let ys = Array.of_list (Token.tokenize y) in
  let nx = Array.length xs and ny = Array.length ys in
  if nx = 0 && ny = 0 then 0.
  else begin
    match cutoff with
    | Some c when Float.abs (float_of_int (nx - ny)) *. skip_cost > c -> infinity
    | _ ->
        let d = Array.make_matrix (nx + 1) (ny + 1) 0. in
        for i = 1 to nx do
          d.(i).(0) <- float_of_int i *. skip_cost
        done;
        for j = 1 to ny do
          d.(0).(j) <- float_of_int j *. skip_cost
        done;
        let result = ref None in
        let i = ref 1 in
        while !result = None && !i <= nx do
          (* The row minimum must include column 0, which later rows also
             build on. *)
          let row_min = ref d.(!i).(0) in
          for j = 1 to ny do
            let subst = d.(!i - 1).(j - 1) +. token_cost xs.(!i - 1) ys.(j - 1) in
            let del = d.(!i - 1).(j) +. skip_cost in
            let ins = d.(!i).(j - 1) +. skip_cost in
            let best = Float.min subst (Float.min del ins) in
            d.(!i).(j) <- best;
            if best < !row_min then row_min := best
          done;
          (match cutoff with
          | Some c when !row_min > c -> result := Some infinity
          | _ -> ());
          incr i
        done;
        (match !result with Some r -> r | None -> d.(nx).(ny))
  end

let distance x y = alignment x y

let within ~eps x y = alignment ~cutoff:eps x y <= eps
