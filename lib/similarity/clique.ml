module Iset = Set.Make (Int)

let bron_kerbosch neighbours n =
  let cliques = ref [] in
  (* Bron–Kerbosch with a max-degree pivot: report R as maximal when both
     the candidate set P and the excluded set X are empty. *)
  let rec expand r p x =
    if Iset.is_empty p && Iset.is_empty x then cliques := Iset.elements r :: !cliques
    else begin
      let pivot =
        let candidates = Iset.union p x in
        Iset.fold
          (fun v (best, best_deg) ->
            let deg = Iset.cardinal (Iset.inter neighbours.(v) p) in
            if deg > best_deg then (v, deg) else (best, best_deg))
          candidates
          (Iset.min_elt candidates, -1)
        |> fst
      in
      let without_pivot = Iset.diff p neighbours.(pivot) in
      ignore
        (Iset.fold
           (fun v (p, x) ->
             expand (Iset.add v r) (Iset.inter p neighbours.(v)) (Iset.inter x neighbours.(v));
             (Iset.remove v p, Iset.add v x))
           without_pivot (p, x))
    end
  in
  let all = Iset.of_list (List.init n Fun.id) in
  if n > 0 then expand Iset.empty all Iset.empty;
  !cliques

let maximal_cliques ~n ~adjacent =
  if n < 0 then invalid_arg "Clique.maximal_cliques: negative n";
  let neighbours = Array.make (max n 1) Iset.empty in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if adjacent i j then begin
        neighbours.(i) <- Iset.add j neighbours.(i);
        neighbours.(j) <- Iset.add i neighbours.(j)
      end
    done
  done;
  bron_kerbosch neighbours n
