module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Metric = Toss_similarity.Metric
module Levenshtein = Toss_similarity.Levenshtein
module Name_rules = Toss_similarity.Name_rules
module Text_rules = Toss_similarity.Text_rules
module Tree = Toss_xml.Tree

(* Person names are capitalized short token sequences; applying the
   name-rules measure (which tolerates dropped middle tokens) to arbitrary
   phrases would make "web conference" similar to "conference" and break
   hierarchies, so it is gated on shape. *)
let looks_like_name s =
  let words = String.split_on_char ' ' (String.trim s) in
  let n = List.length words in
  n >= 1 && n <= 4
  && List.for_all
       (fun w -> String.length w > 0 && w.[0] >= 'A' && w.[0] <= 'Z')
       words

let experiment_distance a b =
  if a = b then 0.
  else begin
    let name_d =
      if looks_like_name a && looks_like_name b then Name_rules.distance a b
      else infinity
    in
    let text_d = Text_rules.distance a b in
    let lev = float_of_int (Levenshtein.distance a b) in
    (* Short strings (venue acronyms, years) need near-exactness. *)
    let lev_d =
      if min (String.length a) (String.length b) >= 6 then lev else 2. *. lev
    in
    Float.min name_d (Float.min text_d lev_d)
  end

(* Threshold test, cheapest component first; agrees with
   [experiment_distance a b <= eps]. *)
let experiment_within ~eps a b =
  a = b
  || (looks_like_name a && looks_like_name b && Name_rules.distance a b <= eps)
  || (let lev_budget =
        if min (String.length a) (String.length b) >= 6 then eps else eps /. 2.
      in
      lev_budget >= 0.
      && Levenshtein.distance_within (int_of_float lev_budget) a b <> None)
  || Text_rules.within ~eps a b

let experiment_metric =
  Metric.v ~name:"toss-experiment" ~within:experiment_within
    experiment_distance

type query = {
  query_id : int;
  description : string;
  pattern : Pattern.t;
  sl : int list;
  correct : string list;
}

(* #1 inproceedings with #2 author, #3 booktitle children:
   3 tag conditions + 1 similarTo + 1 isa. *)
let selection_pattern ~author_name ~isa_term =
  let open Pattern in
  let root = node 1 [ pc (leaf 2); pc (leaf 3) ] in
  let condition =
    Condition.conj
      [
        Condition.tag_eq 1 "inproceedings";
        Condition.tag_eq 2 "author";
        Condition.tag_eq 3 "booktitle";
        Condition.content_sim 2 author_name;
        Condition.content_isa 3 isa_term;
      ]
  in
  v root condition

let selection_queries ?(n = 12) (corpus : Corpus.t) =
  (* Authors ranked by publication count; one query per author. *)
  let count aid = List.length (Corpus.papers_by_author corpus aid) in
  let ranked =
    Array.to_list corpus.Corpus.authors
    |> List.map (fun (a : Corpus.author) -> (count a.Corpus.author_id, a))
    |> List.sort (fun (c1, a1) (c2, a2) ->
           match Int.compare c2 c1 with
           | 0 -> Int.compare a1.Corpus.author_id a2.Corpus.author_id
           | c -> c)
    |> List.map snd
  in
  let chosen = List.filteri (fun i _ -> i < n) ranked in
  List.mapi
    (fun i (a : Corpus.author) ->
      let papers = Corpus.papers_by_author corpus a.Corpus.author_id in
      let author_name = Variant.render a.Corpus.person Variant.Full in
      (* Pick the venue of the author's first paper; alternate between a
         venue-term isa (TAX's contains gets partial recall) and a
         category-term isa (TAX gets almost none). *)
      let sample_venue =
        match papers with
        | p :: _ -> Corpus.venue corpus p.Corpus.venue_id
        | [] -> Corpus.venue corpus 0
      in
      let isa_term, correct =
        if i mod 2 = 0 then
          ( sample_venue.Corpus.abbrev,
            List.filter
              (fun (p : Corpus.paper) -> p.Corpus.venue_id = sample_venue.Corpus.venue_id)
              papers
            |> List.map (fun (p : Corpus.paper) -> p.Corpus.key) )
        else
          ( sample_venue.Corpus.category,
            List.filter
              (fun (p : Corpus.paper) ->
                (Corpus.venue corpus p.Corpus.venue_id).Corpus.category
                = sample_venue.Corpus.category)
              papers
            |> List.map (fun (p : Corpus.paper) -> p.Corpus.key) )
      in
      {
        query_id = i + 1;
        description =
          Printf.sprintf "papers by someone ~ %S at a venue isa %S" author_name isa_term;
        pattern = selection_pattern ~author_name ~isa_term;
        sl = [];
        correct;
      })
    chosen

let scalability_selection () =
  let open Pattern in
  let root = node 1 [ pc (leaf 2); pc (leaf 3); pc (leaf 4); pc (leaf 5) ] in
  let condition =
    Condition.conj
      [
        Condition.Isa (Condition.Tag 1, Condition.Str "paper");
        Condition.tag_eq 2 "author";
        Condition.tag_eq 3 "booktitle";
        Condition.tag_eq 4 "year";
        Condition.tag_eq 5 "title";
        Condition.content_isa 3 "database conference";
      ]
  in
  (v root condition, [])

let join_query () =
  let open Pattern in
  let left = node 1 [ pc (leaf 2) ] in
  let right = node 3 [ pc (leaf 4) ] in
  (* ad edges from the product root, as in the paper's Figure 14: the
     joined elements sit anywhere inside their respective documents. *)
  let root = node 0 [ ad left; ad right ] in
  let condition =
    Condition.conj
      [
        Condition.tag_eq 0 Toss_tax.Algebra.prod_root_tag;
        Condition.tag_eq 1 "inproceedings";
        Condition.tag_eq 2 "title";
        Condition.tag_eq 3 "article";
        Condition.tag_eq 4 "title";
        Condition.Sim (Condition.Content 2, Condition.Content 4);
      ]
  in
  (v root condition, [ 1; 3 ])

let rec collect_keys acc tree =
  match tree with
  | Tree.Text _ -> acc
  | Tree.Element { attrs; children; _ } ->
      let acc =
        match List.assoc_opt "key" attrs with Some k -> k :: acc | None -> acc
      in
      List.fold_left collect_keys acc children

let result_keys trees =
  List.fold_left collect_keys [] trees |> List.sort_uniq String.compare

let result_key_pairs trees =
  List.filter_map
    (fun tree ->
      match tree with
      | Tree.Element { children = [ l; r ]; _ } -> (
          match (collect_keys [] l, collect_keys [] r) with
          | lk :: _, rk :: _ -> Some (lk, rk)
          | _ -> None)
      | _ -> None)
    trees
  |> List.sort_uniq compare
