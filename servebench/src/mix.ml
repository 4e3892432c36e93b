(* The corpus and the query mixes each workload sends, built from strings
   the generated corpus actually contains. *)

module Corpus = Toss_data.Corpus
module Dblp_gen = Toss_data.Dblp_gen
module Tree = Toss_xml.Tree
module Printer = Toss_xml.Printer

let plain s = s <> "" && String.for_all (fun c -> c <> '"' && c <> '\\') s

let uniq l =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else (
        Hashtbl.add seen x ();
        true))
    l

let papers (r : Dblp_gen.t) =
  match r.Dblp_gen.tree with Tree.Element { children; _ } -> children | Tree.Text _ -> []

let leaf_text tag = function
  | Tree.Element { children; _ } ->
      List.find_map
        (function
          | Tree.Element { tag = t; children = [ Tree.Text s ]; _ } when t = tag -> Some s
          | _ -> None)
        children
  | Tree.Text _ -> None

let rekey suffix = function
  | Tree.Element { tag; attrs; children } ->
      let attrs = List.map (fun (k, v) -> if k = "key" then (k, v ^ suffix) else (k, v)) attrs in
      Tree.Element { tag; attrs; children }
  | t -> t

let xml t = Printer.to_string ~decl:false t

type t = {
  docs : string array;  (** the corpus ingested during set-up, in order *)
  queries : string array;  (** the read mix *)
  insert_doc : int -> string;  (** the [i]-th document inserted after set-up *)
  probe : int -> string;  (** a read that must see the [i]-th insert *)
}

let by_title title =
  Printf.sprintf
    "MATCH #1:inproceedings(/#2:title) WHERE #2.content = \"%s\" SELECT #1" title

(* Hundreds of distinct selections: similarity author lookups alone and
   combined with an exact venue or year, title-word containment, and
   ontology venue selections. Uniform draws over this many queries keep
   the result cache mostly cold. *)
let wide_queries rendered =
  let ps = papers rendered in
  let authors =
    uniq (List.filter_map (fun (_, _, s) -> if plain s then Some s else None)
            rendered.Dblp_gen.author_strings)
  in
  let venues =
    uniq (List.filter_map (fun (_, s) -> if plain s then Some s else None)
            rendered.Dblp_gen.venue_strings)
  in
  let years = uniq (List.filter_map (leaf_text "year") ps) in
  let words =
    uniq
      (List.concat_map
         (fun p ->
           match leaf_text "title" p with
           | None -> []
           | Some t ->
               List.filter (fun w -> String.length w > 3 && plain w) (String.split_on_char ' ' t))
         ps)
  in
  let sim a =
    Printf.sprintf "MATCH #1:inproceedings(/#2:author) WHERE #2.content ~ \"%s\" SELECT #1" a
  in
  let with_leaf tag a v =
    Printf.sprintf
      "MATCH #1:inproceedings(/#2:author, /#3:%s) WHERE #2.content ~ \"%s\" AND #3.content = \
       \"%s\" SELECT #1"
      tag a v
  in
  let word w =
    Printf.sprintf
      "MATCH #1:inproceedings(/#2:title) WHERE contains(#2.content, \"%s\") SELECT #1" w
  in

  let isa v =
    Printf.sprintf
      "MATCH #1:inproceedings(/#2:author, /#3:booktitle) WHERE #2.content ~ \"%s\" AND \
       #3.content isa \"database conference\" SELECT #1"
      v
  in
  Array.of_list
    (List.map sim authors
    @ List.concat_map (fun a -> List.map (with_leaf "booktitle" a) venues) authors
    @ List.concat_map (fun a -> List.map (with_leaf "year" a) years) authors
    @ List.map word words @ List.map isa authors)

type shape = Hot | Wide

(* The corpus is the same for every seed, so that set-up and SEO costs
   compare across runs; the seed decides the traffic: arrival times and
   query draws (see {!Schedule}) and which papers are inserted again. *)
let corpus_seed = 7

let make ~seed ~n_papers shape =
  let corpus = Corpus.generate ~seed:corpus_seed ~n_papers () in
  let rendered = Dblp_gen.render ~seed:corpus_seed corpus in
  let base = Array.of_list (papers rendered) in
  let nb = Array.length base in
  let order =
    let st = Random.State.make [| seed; 0x1e5 |] in
    let a = Array.init nb Fun.id in
    for i = nb - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let paper i = order.(i mod nb) in
  let title i = Option.value (leaf_text "title" base.(paper i)) ~default:"" in
  {
    docs = Array.map xml base;
    queries =
      (match shape with
      | Hot -> Toss_shard.Loadgen.query_mix ~seed:corpus_seed ~n_papers
      | Wide -> wide_queries rendered);
    (* Inserted papers are further records of the corpus's own papers
       under fresh keys, as a second source would list them. They add no
       new terms, so an SEO rebuild costs about the same all run long. *)
    insert_doc = (fun i -> xml (rekey (Printf.sprintf "-r%d" i) base.(paper i)));
    probe = (fun i -> by_title (title i));
  }
