type counts = { tp : int; fp : int; fn : int }

let dedup l = List.sort_uniq String.compare l

let counts ~correct ~returned =
  let correct = dedup correct and returned = dedup returned in
  let tp = List.length (List.filter (fun k -> List.mem k correct) returned) in
  { tp; fp = List.length returned - tp; fn = List.length correct - tp }

let precision ~correct ~returned =
  let { tp; fp; _ } = counts ~correct ~returned in
  if tp + fp = 0 then 1.0 else float_of_int tp /. float_of_int (tp + fp)

let recall ~correct ~returned =
  let { tp; fn; _ } = counts ~correct ~returned in
  if tp + fn = 0 then 1.0 else float_of_int tp /. float_of_int (tp + fn)

let quality ~precision ~recall = sqrt (precision *. recall)

let evaluate ~correct ~returned =
  let p = precision ~correct ~returned in
  let r = recall ~correct ~returned in
  (p, r, quality ~precision:p ~recall:r)

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
