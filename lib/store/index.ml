module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Metrics = Toss_obs.Metrics

let m_builds = Metrics.counter "store.index.builds"

type t = (string * string, Doc.node list) Hashtbl.t

let push tbl key node =
  Hashtbl.replace tbl key (node :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

let build doc =
  Metrics.incr m_builds;
  let eq = Hashtbl.create 256 in
  List.iter
    (fun n ->
      if Doc.children doc n = [] then push eq (Doc.tag doc n, Doc.content doc n) n)
    (Doc.nodes doc);
  eq

(* Statistics accessors for the planner: plain reads, no lookup/hit
   metrics — estimating a plan must not perturb the counters that
   describe executing it. *)

let eq_count t ~tag ~value =
  match Hashtbl.find_opt t (tag, value) with
  | None -> 0
  | Some nodes -> List.length nodes
