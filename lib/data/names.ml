type person = { first : string; middle : string option; last : string }

let first_names =
  [|
    "James"; "Mary"; "John"; "Patricia"; "Robert"; "Jennifer"; "Michael"; "Linda";
    "David"; "Elizabeth"; "William"; "Barbara"; "Richard"; "Susan"; "Joseph";
    "Jessica"; "Thomas"; "Sarah"; "Charles"; "Karen"; "Christopher"; "Nancy";
    "Daniel"; "Lisa"; "Matthew"; "Betty"; "Anthony"; "Margaret"; "Mark"; "Sandra";
    "Donald"; "Ashley"; "Steven"; "Kimberly"; "Paul"; "Emily"; "Andrew"; "Donna";
    "Joshua"; "Michelle"; "Kenneth"; "Dorothy"; "Kevin"; "Carol"; "Brian";
    "Amanda"; "George"; "Melissa"; "Edward"; "Deborah"; "Ronald"; "Stephanie";
    "Timothy"; "Rebecca"; "Jason"; "Sharon"; "Jeffrey"; "Laura"; "Ryan";
    "Cynthia"; "Jacob"; "Kathleen"; "Gary"; "Amy"; "Nicholas"; "Shirley"; "Eric";
    "Angela"; "Jonathan"; "Helen"; "Stephen"; "Anna"; "Larry"; "Brenda"; "Justin";
    "Pamela"; "Scott"; "Nicole"; "Brandon"; "Emma"; "Benjamin"; "Samantha";
    "Marco"; "Mauro"; "Gianluigi"; "Giovanni"; "Paolo"; "Pietro"; "Stefano";
    "Stefan"; "Johann"; "Johannes"; "Henrik"; "Hendrik"; "Wei"; "Wen"; "Jian";
    "Jun"; "Hiroshi"; "Hiroshi"; "Kenji"; "Kenjiro"; "Rakesh"; "Ramesh";
    "Sergey"; "Sergei"; "Andrei"; "Andrey"; "Divesh"; "Dinesh";
  |]

let last_names =
  [|
    "Smith"; "Johnson"; "Williams"; "Brown"; "Jones"; "Garcia"; "Miller";
    "Davis"; "Rodriguez"; "Martinez"; "Hernandez"; "Lopez"; "Gonzalez";
    "Wilson"; "Anderson"; "Thomas"; "Taylor"; "Moore"; "Jackson"; "Martin";
    "Lee"; "Perez"; "Thompson"; "White"; "Harris"; "Sanchez"; "Clark";
    "Ramirez"; "Lewis"; "Robinson"; "Walker"; "Young"; "Allen"; "King";
    "Wright"; "Scott"; "Torres"; "Nguyen"; "Hill"; "Flores"; "Green"; "Adams";
    "Nelson"; "Baker"; "Hall"; "Rivera"; "Campbell"; "Mitchell"; "Carter";
    "Roberts"; "Ferrari"; "Ferraro"; "Rossi"; "Russo"; "Bianchi"; "Romano";
    "Colombo"; "Ricci"; "Marino"; "Greco"; "Mueller"; "Muller"; "Schmidt";
    "Schmitt"; "Schneider"; "Fischer"; "Weber"; "Wagner"; "Becker"; "Hoffmann";
    "Hofmann"; "Chen"; "Cheng"; "Zhang"; "Zhao"; "Wang"; "Wong"; "Li"; "Liu";
    "Yang"; "Kim"; "Park"; "Tanaka"; "Tanabe"; "Suzuki"; "Sato"; "Ullman";
    "Widom"; "Agrawal"; "Agarwal"; "Srivastava"; "Shrivastava"; "Ivanov";
    "Petrov"; "Kumar"; "Gupta"; "Sharma"; "Patel";
  |]

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

let fresh rng =
  let first = pick rng first_names in
  let middle =
    if Random.State.float rng 1.0 < 0.5 then begin
      let rec other () =
        let m = pick rng first_names in
        if m = first then other () else m
      in
      Some (other ())
    end
    else None
  in
  { first; middle; last = pick rng last_names }

let full p =
  match p.middle with
  | Some m -> Printf.sprintf "%s %s %s" p.first m p.last
  | None -> Printf.sprintf "%s %s" p.first p.last
