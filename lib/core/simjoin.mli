(** Signature-based similarity joins (prefix filtering with an adaptive
    overlap constraint, after Xu & Lu).

    The nested-loop pairing of a join whose cross condition is a [~] or
    [isa] atom scores every left×right pair — O(n²) predicate
    evaluations. This module replaces the quadratic candidate generation
    with set-overlap filtering over {e taxonomic signatures} derived
    from the SEO:

    - the signature of a value under [~] is its similarity cluster (the
      value plus every co-resident term of the enhanced hierarchy, via
      the memoized {!Rewrite.similar_terms}); two known values are
      similar only if their clusters intersect;
    - the signature of a value under [isa] is its at-or-below set
      ({!Rewrite.isa_below}) on the upper side and the value itself on
      the lower side; [x isa y] holds only if [x ∈ below(y)];
    - in {!Rewrite.Tax} mode [~] is string equality and the signature is
      the value itself.

    Build-side records are indexed under a {e prefix} of their signature
    ordered by ascending global token frequency (rare tokens first), and
    the prefix length adapts per record: a record whose signature is a
    multi-term cluster must share at least two tokens with any distinct
    similar partner (each endpoint occurs in both clusters), so its
    least-frequent [|sig| - 1] tokens suffice; singleton signatures and
    [isa] signatures require overlap one and index in full. Probing
    applies the same rule to the probe signature, so candidate sets
    shrink as ε tightens clusters.

    Values outside the ontology fall back to the metric predicate
    [d(x, y) <= ε], which has no finite signature; the index routes them
    to a brute-force bucket probed only by unknown values (a known and
    an unknown term are never similar — see {!Seo.similar}).

    Candidate generation is {e complete} (a pair the filter skips cannot
    satisfy the atom, hence not the cross condition it is a top-level
    conjunct of) but not sound on its own: the caller must re-check the
    full cross condition on every candidate. {!Plan.run}'s pairing loop
    does. *)

type scheme
(** A signature scheme: how probe- and build-side values expand into
    token sets, and which overlap constraint applies. Pure data plus
    memoized SEO walks; cheap to build at plan time. *)

val sim_scheme : mode:Rewrite.mode -> Seo.t -> scheme
(** The scheme for a [~] cross atom. [Toss] mode expands known values
    into their similarity clusters and routes unknown values to the
    metric-fallback bucket; [Tax] mode ([~] = string equality) uses
    singleton signatures throughout. *)

val isa_scheme : below:[ `Probe | `Build ] -> Seo.t -> scheme
(** The scheme for an [isa] cross atom under {!Rewrite.Toss} semantics.
    [below] names the side whose value must lie at-or-below the other's:
    that side keeps singleton signatures while the upper side expands
    into its at-or-below set. Tax-mode [isa] (substring containment)
    admits no finite signature — the planner must not select the
    operator for it. *)

val scheme_name : scheme -> string
(** For plan rendering: ["cluster"], ["equality"] or ["isa-below"]. *)

val overlap_name : scheme -> string
(** For plan rendering: ["adaptive"] when multi-token signatures demand
    overlap two, ["1"] when every signature requires a single shared
    token. *)

type index
(** A frequency-ordered prefix index over the build side of one pairing,
    plus the metric-fallback bucket. Built once per execution; valid for
    the value array it was built from. *)

val build :
  ?check:(unit -> unit) ->
  ?drop_last_prefix_token:bool ->
  scheme ->
  string option array ->
  index
(** [build scheme values] indexes the build side; [values.(i)] is the
    build atom term's value under binding [i] ([None] when unbound — an
    unbound term falsifies the atom, so the binding pairs with nothing
    and is not indexed). [check] is the cooperative cancellation hook,
    called once per record. [drop_last_prefix_token] is the
    [simjoin-prefix-too-short] fault of the differential harness: it
    truncates every indexed prefix by one token, losing pairs. Testing
    only. *)

val probe : index -> string -> int list
(** Ordinals (into the build array) of every candidate partner for a
    probe value, strictly ascending — so verified pairs are emitted in
    build-input order and the operator's output order matches the nested
    loop's. Complete with respect to the scheme's atom; the caller
    re-checks the exact predicate. *)

val n_indexed : index -> int
(** Build records reachable through the prefix index (diagnostics). *)

val n_fallback : index -> int
(** Build records in the metric-fallback bucket (diagnostics). *)
