(** The server's query-result cache, extended across inserts.

    An entry is keyed on what determines a query's answer apart from the
    documents: the collection's name, the SEO configuration fingerprint
    of the serving session, the query semantics and the TQL text. It
    holds the answer at one collection version ({!Toss_store.Collection.version})
    with its trees in document order, and the {!Toss_core.Seo.t} it was
    computed under.

    TAX/TOSS selection and projection answer per input document, so the
    answer at version [v] is the answer at an older version [w] followed
    by the new documents' trees, as long as the SEO is the same. A
    lookup by a request pinned at [(v, seo)] is therefore:

    - {!Hit} when the entry is at [v] under the physically same SEO;
    - {!Delta} when it is at an older version [w] under the same SEO:
      the engine runs the query over the documents from [w] on
      ({!Toss_core.Session.since}), appends their trees and
      {!publish}es the result;
    - {!Miss} otherwise: no entry, another SEO (an insert brought new
      vocabulary), or an entry newer than the pin.

    So a result is served at [v] only if it was computed or extended at
    [v] under the same SEO. Readers racing to publish cannot move an
    entry back: {!publish} never lowers its version. An entry holds its
    SEO weakly: once no session or pin holds that SEO, the GC takes it,
    and the entry misses.

    Capacity-bounded with FIFO eviction; all operations are
    mutex-protected and therefore domain-safe — query workers on
    separate domains share one cache. Hits, deltas, misses, the documents
    each delta ran over, evictions and the live entry count are
    published to {!Toss_obs.Metrics} under [server.cache.*]. *)

type key = {
  collection : string;
  config : string;  (** SEO configuration fingerprint (metric, eps, …) *)
  mode : string;  (** ["tax"] or ["toss"] *)
  tql : string;
}

type entry = {
  version : int;  (** the collection version the trees answer *)
  trees : Toss_json.t list;  (** the answer's trees as printed, in document order *)
  count : int;  (** [List.length trees] *)
  compute_ms : float;  (** what the last miss or delta took *)
}

type lookup = Hit of entry | Delta of entry | Miss

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 256 entries. A [capacity] of 0 stores nothing, so
    every lookup misses: [toss serve --cache-capacity 0] runs that way.
    A single request skips the cache with [cache:false] in its query
    ([toss client --no-cache]). *)

val find : t -> key -> version:int -> seo:Toss_core.Seo.t -> lookup
(** The entry for a request pinned at [version] under [seo]. Counts
    [server.cache.hits], [server.cache.deltas] (and the delta's new
    document count in [server.cache.delta_docs]) or
    [server.cache.misses]. *)

val publish : t -> key -> seo:Toss_core.Seo.t -> entry -> unit
(** Stores the entry, computed under [seo], unless the one already there
    is at a newer version. A new key evicts the oldest key when the
    cache is full. *)

val size : t -> int

(** {1 Fault injection (testing only)}

    Each variant breaks the extension rule in one way, so a test can
    show that comparing answers with an uncached engine catches it.
    Production code must leave this at {!No_fault}. *)

type fault =
  | No_fault
  | Extend_across_seo
      (** {!find} extends (or serves) an entry whatever SEO it was
          computed under *)
  | Extend_skip_new_docs
      (** a delta runs over no documents, so the new documents' trees
          are never appended *)

val fault : fault ref
