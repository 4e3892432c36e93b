type t = {
  name : string;
  dist : string -> string -> float;
  within_opt : (eps:float -> string -> string -> bool) option;
}

let v ~name ?within dist = { name; dist; within_opt = within }
let dist m a b = m.dist a b

let within m ~eps a b =
  match m.within_opt with
  | Some fast -> fast ~eps a b
  | None -> m.dist a b <= eps
