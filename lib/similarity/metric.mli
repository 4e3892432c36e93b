(** String similarity measures (Definition 7 of the paper).

    A string similarity measure [d_s] maps two strings to a non-negative
    real with [d_s x x = 0] and [d_s x y = d_s y x]; smaller means more
    similar. A measure is {e strong} when it also satisfies the triangle
    inequality. The TOSS framework is parametric in the measure: anything
    of type {!t} can be plugged into the SEA algorithm and the [~]
    (similarTo) predicate. *)

type t = {
  name : string;
  dist : string -> string -> float;
  within_opt : (eps:float -> string -> string -> bool) option;
      (** optional threshold-test fast path; must agree with
          [dist x y <= eps] *)
}

val v :
  name:string ->
  ?within:(eps:float -> string -> string -> bool) ->
  (string -> string -> float) ->
  t

val dist : t -> string -> string -> float

val within : t -> eps:float -> string -> string -> bool
(** [dist t x y <= eps], via the fast path when one is registered. The
    SEA algorithm's pairwise clustering and the executor's similarity
    fallback call this in tight loops. *)
