let initial_cost = 1.25
let skip_cost = 0.75
let typo_unit = 1.1
let concat_cost = 0.1
let mismatch_cost = 6.5

let tokens s = Token.tokenize s

let is_initial t = String.length t = 1

(* Cost of treating two single name tokens as the same name part. *)
let token_cost a b =
  if a = b then 0.
  else if is_initial a && (not (is_initial b)) && a.[0] = b.[0] then initial_cost
  else if is_initial b && (not (is_initial a)) && b.[0] = a.[0] then initial_cost
  else
    let lev = Levenshtein.distance a b in
    if lev <= 2 && min (String.length a) (String.length b) >= 3 then
      typo_unit *. float_of_int lev
    else mismatch_cost

(* Cost of matching token [a] against the concatenation of [bs]. *)
let concat_match a bs =
  match bs with
  | [] | [ _ ] -> None
  | _ -> if String.concat "" bs = a then Some concat_cost else None

(* Sequence alignment over given-name tokens: exact/initial/typo matches,
   skips, and 1-against-2 concatenation merges. A token may only be
   skipped from the side with more remaining tokens (a dropped middle
   name); equal-length remainders must be matched pairwise, so two
   different given names cannot dodge comparison by skipping both. *)
let align_given xs ys =
  let nx = List.length xs and ny = List.length ys in
  let xa = Array.of_list xs and ya = Array.of_list ys in
  let memo = Array.make_matrix (nx + 1) (ny + 1) nan in
  let rec go i j =
    if Float.is_nan memo.(i).(j) then begin
      let v =
        if i = nx && j = ny then 0.
        else if i = nx then (float_of_int (ny - j) *. skip_cost)
        else if j = ny then (float_of_int (nx - i) *. skip_cost)
        else begin
          let best = token_cost xa.(i) ya.(j) +. go (i + 1) (j + 1) in
          let best =
            if nx - i > ny - j then Float.min best (skip_cost +. go (i + 1) j)
            else best
          in
          let best =
            if ny - j > nx - i then Float.min best (skip_cost +. go i (j + 1))
            else best
          in
          let best =
            if i + 1 < nx then begin
              match concat_match ya.(j) [ xa.(i); xa.(i + 1) ] with
              | Some c -> Float.min best (c +. go (i + 2) (j + 1))
              | None -> best
            end
            else best
          in
          let best =
            if j + 1 < ny then begin
              match concat_match xa.(i) [ ya.(j); ya.(j + 1) ] with
              | Some c -> Float.min best (c +. go (i + 1) (j + 2))
              | None -> best
            end
            else best
          in
          best
        end
      in
      memo.(i).(j) <- v
    end;
    memo.(i).(j)
  in
  go 0 0

let surname_cost a b =
  if a = b then Some 0.
  else
    let lev = Levenshtein.distance a b in
    if lev <= 1 && min (String.length a) (String.length b) >= 4 then
      Some (typo_unit *. float_of_int lev)
    else None

let distance x y =
  match (List.rev (tokens x), List.rev (tokens y)) with
  | [], [] -> 0.
  | [], _ | _, [] -> mismatch_cost
  | sx :: gx_rev, sy :: gy_rev -> (
      let gx = List.rev gx_rev and gy = List.rev gy_rev in
      match surname_cost sx sy with
      | Some c ->
          let given = align_given gx gy in
          Float.min (c +. given) mismatch_cost
      | None ->
          (* Different tokenizations of the same full name, e.g. a surname
             glued to a given name: fall back to comparing the whole names
             with spacing removed. *)
          let flat_x = String.concat "" (gx @ [ sx ]) in
          let flat_y = String.concat "" (gy @ [ sy ]) in
          if flat_x = flat_y then concat_cost else mismatch_cost)

let metric = Metric.v ~name:"name-rules" distance
