module Tree = Toss_xml.Tree
module Doc = Tree.Doc
module Collection = Toss_store.Collection
module Condition = Toss_tax.Condition
module Executor = Toss_core.Executor
module Toss_condition = Toss_core.Toss_condition

type config = Compiled | Interpreted

let configs = [ Compiled; Interpreted ]

let config_name = function Compiled -> "compiled" | Interpreted -> "interpreted"

type failure = {
  case : Gen.case;
  mode : Executor.mode;
  config : config;
  expected : Tree.t list;
  got : Tree.t list;
  detail : string;
}

let mode_name = function Executor.Tax -> "tax" | Executor.Toss -> "toss"

let canonical = Toss_tax.Witness.canonical

let equal_multiset a b =
  List.length a = List.length b && List.for_all2 Tree.equal a b

let modes = [ Executor.Tax; Executor.Toss ]

let check_case (case : Gen.case) =
  let seo = Gen.seo_of case in
  let coll = Collection.snapshot (Collection.of_trees ~name:"check" case.Gen.docs) in
  let rcoll =
    Collection.snapshot (Collection.of_trees ~name:"check-right" case.Gen.right_docs)
  in
  let docs = List.map Doc.of_tree case.Gen.docs in
  let rdocs = List.map Doc.of_tree case.Gen.right_docs in
  let pattern = case.Gen.pattern and sl = case.Gen.sl in
  let fail mode config expected got detail =
    Some { case; mode; config; expected; got; detail }
  in
  let compile config = config = Compiled in
  let check_mode mode =
    let eval =
      match mode with
      | Executor.Tax -> Condition.eval_tax
      | Executor.Toss -> Toss_condition.evaluator seo
    in
    match case.Gen.op with
    | Gen.Select ->
        let oracle_trees, oracle_n = Oracle.select ~eval ~pattern ~sl docs in
        let expected = canonical oracle_trees in
        List.find_map
          (fun config ->
            let results, stats =
              Executor.select ~mode ~compile:(compile config) seo coll ~pattern
                ~sl
            in
            let got = canonical results in
            if not (equal_multiset expected got) then
              fail mode config expected got
                (Printf.sprintf "select result multiset differs (oracle %d, executor %d)"
                   (List.length expected) (List.length got))
            else if stats.Executor.n_embeddings <> oracle_n then
              fail mode config expected got
                (Printf.sprintf "embedding count differs (oracle %d, executor %d)"
                   oracle_n stats.Executor.n_embeddings)
            else None)
          configs
    | Gen.Join ->
        let expected = canonical (Oracle.join ~eval ~pattern ~sl docs rdocs) in
        List.find_map
          (fun config ->
            let results, _ =
              Executor.join ~mode ~compile:(compile config) seo coll rcoll
                ~pattern ~sl
            in
            let got = canonical results in
            if not (equal_multiset expected got) then
              fail mode config expected got
                (Printf.sprintf "join result multiset differs (oracle %d, executor %d)"
                   (List.length expected) (List.length got))
            else None)
          configs
  in
  List.find_map check_mode modes
