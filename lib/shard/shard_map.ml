type t = { shards : string array; replicated : string list }

let make ~shards ~replicated =
  if shards = [] then Error "a shard map needs at least one shard"
  else
    let rec check = function
      | [] -> Ok { shards = Array.of_list shards; replicated }
      | a :: rest -> (
          match Toss_server.Transport.parse a with
          | Ok _ -> check rest
          | Error msg -> Error (Printf.sprintf "shard %S: %s" a msg))
    in
    check shards

let n t = Array.length t.shards
let addr t i = t.shards.(i)
let replicated t collection = List.mem collection t.replicated

let splitmix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let owner t ~collection ~seq =
  (* FNV-1a over the name, then a splitmix64 finalizer mixing in the
     sequence number — cheap, stable, and well-spread even for doc
     sequences 0,1,2,… of a single collection. *)
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    collection;
  let z = splitmix64 (Int64.add !h (Int64.of_int seq)) in
  Int64.to_int
    (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int (n t)))

let shadow_prefix = ".vocab."
let shadow collection = shadow_prefix ^ collection

let is_shadow name =
  String.length name >= String.length shadow_prefix
  && String.sub name 0 (String.length shadow_prefix) = shadow_prefix
