module Hierarchy = Toss_hierarchy.Hierarchy
module Smap = Map.Make (String)

type relation = string

let isa = "isa"
let part_of = "part-of"

type t = Hierarchy.t Smap.t

let empty = Smap.empty |> Smap.add isa Hierarchy.empty |> Smap.add part_of Hierarchy.empty
let add rel h t = Smap.add rel h t
let of_list l = List.fold_left (fun t (rel, h) -> add rel h t) empty l
let find rel t = Smap.find_opt rel t
let get rel t = Option.value ~default:Hierarchy.empty (find rel t)
let relations t = List.map fst (Smap.bindings t)
