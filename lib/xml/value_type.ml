type t = Int | Float | Year | String

let infer s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some n when n >= 1000 && n <= 2999 && String.length s = 4 -> Year
  | Some _ -> Int
  | None -> ( match float_of_string_opt s with Some _ -> Float | None -> String)

let name = function Int -> "int" | Float -> "float" | Year -> "year" | String -> "string"

let of_name = function
  | "int" -> Some Int
  | "float" -> Some Float
  | "year" -> Some Year
  | "string" -> Some String
  | _ -> None
