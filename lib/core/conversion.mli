(** Conversion functions between types (Section 5).

    For each pair of types at most one total conversion function
    [τ₁2τ₂ : dom(τ₁) → dom(τ₂)] may exist. The registry enforces the
    paper's closure conditions: identity conversions always exist, and
    compositions are derived automatically (and must be coherent — all
    composition paths between two types denote the same function, which
    {!check_coherence} verifies on samples). Values are carried as
    strings, as in the data model. *)

type t

val empty : t

val register : from:string -> into:string -> (string -> string) -> t -> t
(** @raise Invalid_argument when a different function is already
    registered for the pair. *)

val exists : t -> from:string -> into:string -> bool
(** Including identity and derivable compositions. *)

val convert : t -> from:string -> into:string -> string -> string option
(** Applies the direct, identity, or shortest-composition conversion;
    [None] when no path exists. *)

val types : t -> string list

val mem_type : t -> string -> bool
(** Whether the type takes part in some registered conversion. A type
    that does not converts to and from no other type. *)

val check_coherence : t -> samples:(string * string) list -> (unit, string list) result
(** For each [(type, value)] sample, converts along every simple path to
    every reachable type and reports pairs of paths that disagree. *)

val standard : t
(** Identity plus the numeric conversions used by the bibliographic data:
    [int→float], [year→int], [year→float], and metric length units
    ([mm→cm→m]) as a worked example of composition. *)
