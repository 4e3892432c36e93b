(* In-process work beside the servers: the reference answers the wire
   answers are checked against, and the per-layer replay that times each
   layer's public functions on the run's own requests. *)

module P = Toss_server.Protocol
module Session = Toss_core.Session
module Tql = Toss_core.Tql
module Planner = Toss_core.Planner
module Plan = Toss_core.Plan
module Seo = Toss_core.Seo
module Persist = Toss_store.Persist
module Diff = Toss_check.Diff
module Parser = Toss_xml.Parser
module Printer = Toss_xml.Printer
module Tree = Toss_xml.Tree

let collection = "bib"

(* The measure and threshold [toss serve] runs with. *)
let mirror () = Session.create ~metric:Toss_data.Workload.experiment_metric ~eps:2.0 ()

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let parse_exn xml =
  match Parser.parse xml with Ok t -> t | Error _ -> failwith ("unparseable XML: " ^ xml)

(* The multiset normal form answers are compared in; a tree that does not
   parse stays as text, so it can only compare unequal. *)
let canonical_strings trees =
  List.map
    (fun s -> match Parser.parse s with Ok t -> t | Error _ -> Tree.text s)
    trees
  |> Diff.canonical
  |> List.map (Printer.to_string ~decl:false)

type answer = { version : int; tql : string; trees : string list }

(* Replays the documents in doc-id order into a fresh session and answers
   each query at the version the server answered it at. Returns the
   answers that disagree (a version the replay cannot reach counts). *)
let check ~docs answers =
  let s = mirror () in
  let loaded = ref 0 in
  let sorted = List.stable_sort (fun a b -> compare a.version b.version) answers in
  List.filter
    (fun a ->
      while !loaded < a.version && !loaded < Array.length docs do
        ignore (Session.insert s ~collection (parse_exn docs.(!loaded)));
        incr loaded
      done;
      !loaded <> a.version
      ||
      match Session.query s ~collection a.tql with
      | Error _ -> true
      | Ok ans ->
          List.map (Printer.to_string ~decl:false) ans.Session.trees |> canonical_strings
          <> canonical_strings a.trees)
    sorted

(* ---- per-layer replay ---------------------------------------------- *)

type query_layers = { parse_s : float; plan_s : float; match_s : float; embeddings : int; results : int }

let query_layers pinned tql =
  match Session.pinned_seo pinned with
  | Error _ -> None
  | Ok seo -> (
      let snap = Session.pinned_snapshot pinned in
      match time (fun () -> Tql.parse tql) with
      | Ok { Tql.pattern; target = Tql.Select sl }, parse_s ->
          let plan, plan_s =
            time (fun () -> Planner.plan_select ~optimize:true seo snap ~pattern ~sl)
          in
          let (results, st), match_s =
            time (fun () ->
                Plan.run ~eval:(Toss_core.Toss_condition.evaluator seo) ~coll_of:(fun _ -> snap) plan)
          in
          Some
            {
              parse_s;
              plan_s;
              match_s;
              embeddings = st.Plan.n_embeddings;
              results = List.length results;
            }
      | _ -> None)

type store_layers = {
  insert_s : float list;  (** [Session.insert] *)
  append_s : float list;  (** [Persist.append_document] *)
  build_s : float list;  (** the first [Session.pin] after an insert *)
}

(* Inserts [docs] into [s], appending each to [dir]; when [pin_each],
   pins after every insert, timing the SEO rebuild that pin performs. *)
let store_layers s ~dir ~pin_each docs =
  List.fold_left
    (fun acc xml ->
      let tree = parse_exn xml in
      let id, ins = time (fun () -> Session.insert s ~collection tree) in
      let (), app = time (fun () -> Persist.append_document ~dir ~collection id tree) in
      let build =
        if pin_each then [ snd (time (fun () -> ignore (Session.pin s ~collection))) ] else []
      in
      { insert_s = ins :: acc.insert_s; append_s = app :: acc.append_s; build_s = build @ acc.build_s })
    { insert_s = []; append_s = []; build_s = [] }
    docs

let pin_exn s =
  match Session.pin s ~collection with Ok p -> p | Error e -> failwith e

let seo_terms pinned =
  match Session.pinned_seo pinned with Ok seo -> Seo.n_terms seo | Error _ -> 0

(* ---- wire codec ---------------------------------------------------- *)

let reps = 20

(* Mean seconds of one call of [f] over [reps] calls. *)
let per_call f =
  let (), d = time (fun () -> for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done) in
  d /. float_of_int reps

let req_decode_s codec env =
  match codec with
  | P.Json ->
      let line = P.request_to_line env in
      per_call (fun () -> P.parse_request line)
  | P.Binary ->
      let frame = P.encode_frame (P.request_to_json env) in
      per_call (fun () -> Result.bind (P.decode_frame frame) P.request_of_json)

let encode_response codec resp =
  match codec with
  | P.Json -> P.response_to_line resp
  | P.Binary -> P.encode_frame (P.response_to_json resp)

let resp_encode_s codec resp = per_call (fun () -> encode_response codec resp)

(* The router's merge of shard answers: parse every shard's trees, put
   the union in canonical order, print it. *)
let merge_s shard_answers =
  per_call (fun () ->
      List.concat_map (List.map parse_exn) shard_answers
      |> Diff.canonical
      |> List.map (Printer.to_string ~decl:false))
