(* The requests the benchmark sends, and what it records of each answer. *)

module P = Toss_server.Protocol
module J = Toss_json

let env ?trace_id id request =
  { P.id = Some id; deadline_ms = None; trace_id; allow_partial = false; request }

let read_req tql = P.Query { collection = Replay.collection; tql; mode = Toss_core.Executor.Toss; cache = true }
let insert_req xml = P.Insert { collection = Replay.collection; xml }

let result (r : P.response) = match r.P.body with Ok v -> Some v | Error _ -> None
let num field v = Option.bind (J.member field v) J.to_num
let field_int field r = Option.bind (result r) (fun v -> Option.map int_of_float (num field v))
let version = field_int "version"

let trees r =
  Option.bind (result r) (fun v -> Option.bind (J.member "trees" v) J.to_list)
  |> Option.map (List.filter_map J.to_str)

let cache_hit r =
  Option.bind (result r) (J.member "cache") = Some (J.Str "hit")

(* The router's per-shard (server_ms, queue_ms). *)
let shard_times r =
  match Option.bind (result r) (fun v -> Option.bind (J.member "shards" v) J.to_list) with
  | None -> []
  | Some l ->
      List.map
        (fun s ->
          ( Option.value (num "server_ms" s) ~default:0.,
            Option.value (num "queue_ms" s) ~default:0. ))
        l

type kind = Read of string | Insert of int | Probe of int

type slot = {
  kind : kind;
  due : float;  (** absolute; [nan] for probes, which are sent on an ack *)
  trace_id : string option;
  mutable sent : float;
  mutable recv : float;
  mutable resp : (P.response, string) result option;
}

(* Drops an answer's trees once they have been recorded, so a long run
   holds one copy of each distinct answer rather than one per response. *)
let strip (r : P.response) =
  match r.P.body with
  | Ok (J.Obj fields) -> { r with P.body = Ok (J.Obj (List.remove_assoc "trees" fields)) }
  | _ -> r

(* One reference answer per (query, version); every later response to the
   same key must carry the same trees. *)
type answers = {
  first : (string * int, string list) Hashtbl.t;
  count : (string * int, int) Hashtbl.t;
  mutable inconsistent : int;
}

let answers () = { first = Hashtbl.create 1024; count = Hashtbl.create 1024; inconsistent = 0 }

let record a tql r =
  let key = (tql, Option.value (version r) ~default:(-1)) in
  let t = Option.value (trees r) ~default:[] in
  Hashtbl.replace a.count key (1 + Option.value (Hashtbl.find_opt a.count key) ~default:0);
  match Hashtbl.find_opt a.first key with
  | None -> Hashtbl.add a.first key t
  | Some t0 -> if t0 <> t then a.inconsistent <- a.inconsistent + 1
