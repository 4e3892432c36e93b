(* The open-loop schedule: when each request is due and what it is.

   Everything is drawn up front from the seed, so the offered load does not
   depend on how the server answers. Insert positions are fixed by the
   arrival index alone (every [insert_every]-th arrival), never by the seed,
   so every run of a workload has the same number of inserts and hence the
   same number of SEO rebuild stalls. *)

type kind = Read of int  (** index into the workload's query list *) | Insert of int

type t = { due : float array;  (** seconds after the window opens *) kinds : kind array }

let rng seed salt = Random.State.make [| seed; salt |]

(* Exactly [rate * seconds] Poisson arrivals: a fixed count rather than a
   fixed horizon, so the number of requests (and of inserts) is the same
   for every seed. *)
let arrivals ~seed ~rate ~seconds =
  let st = rng seed 0xa771 in
  let n = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t +. (-.log (1. -. Random.State.float st 1.) /. rate);
      !t)

let zipf_cdf ~s m =
  let w = Array.init m (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let pick cdf u =
  let m = Array.length cdf in
  let rec go i = if i >= m - 1 || u <= cdf.(i) then i else go (i + 1) in
  go 0

(* [zipf = None] draws queries uniformly. *)
let make ~seed ~rate ~seconds ~n_queries ?zipf ?insert_every () =
  let due = arrivals ~seed ~rate ~seconds in
  let st = rng seed 0x9e41 in
  let draw =
    match zipf with
    | Some s ->
        let cdf = zipf_cdf ~s n_queries in
        fun () -> pick cdf (Random.State.float st 1.)
    | None -> fun () -> Random.State.int st n_queries
  in
  let n_inserts = ref 0 in
  let kinds =
    Array.mapi
      (fun i _ ->
        match insert_every with
        | Some k when (i + 1) mod k = 0 ->
            incr n_inserts;
            Insert (!n_inserts - 1)
        | _ -> Read (draw ()))
      due
  in
  { due; kinds }

let n_inserts t =
  Array.fold_left (fun n k -> match k with Insert _ -> n + 1 | Read _ -> n) 0 t.kinds

let insert_positions t =
  List.filter_map Fun.id
    (Array.to_list (Array.mapi (fun i k -> match k with Insert _ -> Some i | Read _ -> None) t.kinds))
