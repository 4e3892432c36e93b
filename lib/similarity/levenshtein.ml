let distance a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    (* Keep the shorter string in the inner dimension to bound memory. *)
    let a, b, la, lb = if la <= lb then (a, b, la, lb) else (b, a, lb, la) in
    let prev = ref (Array.init (la + 1) Fun.id) in
    let curr = ref (Array.make (la + 1) 0) in
    for j = 1 to lb do
      let prev_row = !prev and curr_row = !curr in
      curr_row.(0) <- j;
      let bj = b.[j - 1] in
      for i = 1 to la do
        (* Explicit int comparisons: the polymorphic [min] costs more than
           the rest of the cell update combined. *)
        let subst = prev_row.(i - 1) + (if a.[i - 1] = bj then 0 else 1) in
        let del = prev_row.(i) + 1 in
        let ins = curr_row.(i - 1) + 1 in
        let best = if del < subst then del else subst in
        let best = if ins < best then ins else best in
        curr_row.(i) <- best
      done;
      prev := curr_row;
      curr := prev_row
    done;
    !prev.(la)
  end

let distance_within k a b =
  if k < 0 then None
  else begin
    let la = String.length a and lb = String.length b in
    let a, b, la, lb = if la <= lb then (a, b, la, lb) else (b, a, lb, la) in
    if lb - la > k then None
    else begin
      (* Banded DP: cells farther than k from the diagonal can never lead
         to a result <= k, so they are pinned to infinity. *)
      let inf = max_int / 2 in
      let prev = Array.make (la + 1) inf in
      let curr = Array.make (la + 1) inf in
      for i = 0 to min la k do
        prev.(i) <- i
      done;
      for j = 1 to lb do
        let lo = max 1 (j - k) and hi = min la (j + k) in
        Array.fill curr 0 (la + 1) inf;
        if j <= k then curr.(0) <- j;
        let bj = b.[j - 1] in
        for i = lo to hi do
          let cost = if a.[i - 1] = bj then 0 else 1 in
          let best = prev.(i - 1) + cost in
          let best = if i >= 1 && curr.(i - 1) + 1 < best then curr.(i - 1) + 1 else best in
          let best = if prev.(i) + 1 < best then prev.(i) + 1 else best in
          curr.(i) <- best
        done;
        Array.blit curr 0 prev 0 (la + 1)
      done;
      if prev.(la) <= k then Some prev.(la) else None
    end
  end

let within_banded ~eps a b =
  eps >= 0. && distance_within (int_of_float eps) a b <> None

let metric =
  Metric.v ~name:"levenshtein" ~within:within_banded (fun a b ->
      float_of_int (distance a b))
