type venue = {
  venue_id : int;
  abbrev : string;
  full_name : string;
  category : string;
}

type author = { author_id : int; person : Names.person }

type paper = {
  paper_id : int;
  key : string;
  title : string;
  topic : string option;
  author_ids : int list;
  venue_id : int;
  year : int;
  pages : int * int;
}

type t = {
  seed : int;
  venues : venue array;
  authors : author array;
  papers : paper array;
}

let venues =
  let v i a f c = { venue_id = i; abbrev = a; full_name = f; category = c } in
  [|
    v 0 "SIGMOD Conference" "ACM SIGMOD International Conference on Management of Data"
      "database conference";
    v 1 "VLDB" "International Conference on Very Large Data Bases" "database conference";
    v 2 "ICDE" "International Conference on Data Engineering" "database conference";
    v 3 "PODS" "Symposium on Principles of Database Systems" "database conference";
    v 4 "EDBT" "International Conference on Extending Database Technology"
      "database conference";
    v 5 "CIKM" "Conference on Information and Knowledge Management"
      "information systems conference";
    v 6 "KDD" "Knowledge Discovery and Data Mining" "data mining conference";
    v 7 "ICML" "International Conference on Machine Learning" "machine learning conference";
    v 8 "NIPS" "Neural Information Processing Systems" "machine learning conference";
    v 9 "SIGIR" "Conference on Research and Development in Information Retrieval"
      "information retrieval conference";
    v 10 "WWW" "International World Wide Web Conference" "web conference";
    v 11 "SODA" "Symposium on Discrete Algorithms" "theory conference";
    v 12 "STOC" "Symposium on Theory of Computing" "theory conference";
    v 13 "FOCS" "Symposium on Foundations of Computer Science" "theory conference";
  |]

let generate ?n_authors ~seed ~n_papers () =
  let rng = Random.State.make [| seed; n_papers; 0x705 |] in
  let n_authors = match n_authors with Some n -> n | None -> max 20 (n_papers / 2) in
  (* Canonical full names are kept unique so that the TAX baseline's exact
     matches are always semantically correct (precision 1, as the paper
     reports); near-collisions like Marco/Mauro Ferrari remain possible
     and are what costs TOSS precision at larger thresholds. *)
  let authors =
    let seen = Hashtbl.create 97 in
    Array.init n_authors (fun i ->
        let rec draw attempts =
          let person = Names.fresh rng in
          let name = Names.full person in
          if Hashtbl.mem seen name && attempts < 50 then draw (attempts + 1)
          else begin
            Hashtbl.replace seen name ();
            person
          end
        in
        { author_id = i; person = draw 0 })
  in
  let pick_venue () =
    (* Bias towards the database venues, as in the source data sets. *)
    if Random.State.float rng 1.0 < 0.55 then Random.State.int rng 5
    else Random.State.int rng (Array.length venues)
  in
  let papers =
    Array.init n_papers (fun i ->
        let n_auth = 1 + Random.State.int rng 4 in
        let rec draw k acc =
          if k = 0 then List.rev acc
          else
            let a = Random.State.int rng n_authors in
            if List.mem a acc then draw k acc else draw (k - 1) (a :: acc)
        in
        let title = Titles.generate rng i in
        let start_page = 1 + Random.State.int rng 600 in
        {
          paper_id = i;
          key = Printf.sprintf "p%04d" i;
          title;
          topic = Titles.topic_of title;
          author_ids = draw (min n_auth n_authors) [];
          venue_id = pick_venue ();
          year = 1994 + Random.State.int rng 10;
          pages = (start_page, start_page + 8 + Random.State.int rng 20);
        })
  in
  { seed; venues; authors; papers }

let venue t i = t.venues.(i)
let author t i = t.authors.(i)

let paper_by_key t key = Array.find_opt (fun p -> p.key = key) t.papers

let filter_papers t f = Array.to_list t.papers |> List.filter f

let papers_by_author t id = filter_papers t (fun p -> List.mem id p.author_ids)
