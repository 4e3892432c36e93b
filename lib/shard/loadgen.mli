(** [toss loadgen]: an open-loop load generator for the query server
    and the sharded router.

    {2 Why open loop}

    A closed-loop generator, where each thread waits for a response
    before issuing its next request, lets a slow response {e delay the
    offered load} — queueing delay hides itself from the measurement
    (coordinated omission), and reported tails are far rosier than what
    an independent client population would see. This generator is
    open-loop: request {e arrival times} are drawn up
    front from a Poisson process at the target rate, and each request's
    latency is measured from its {e scheduled arrival} to its
    completion — a request that could not even be sent on time (all
    workers busy) accrues the backlog it caused. That makes p99/p999
    honest under saturation, which is exactly the regime a sharding
    tier is for.

    {2 Workload}

    The corpus is generated deterministically ({!Toss_data.Corpus} +
    {!Toss_data.Dblp_gen}), rendered to one DBLP XML document, split
    into per-paper documents by the streaming SAX selector
    ({!Toss_xml.Sax.trees_where} on [inproceedings]) and inserted
    through the normal wire path — so ingest exercises the server's
    insert path, not a side door. Queries are drawn zipfian (exponent
    {!config.zipf_s}) from a fixed template mix built from strings that
    actually occur in the rendered corpus: similarity ([~]) author
    lookups, ontology ([isa]) venue selections, exact matches and
    conjunctions — so answers are non-empty and the similarity/ontology
    machinery is on the hot path. *)

type config = {
  target : string;  (** server/router address, {!Toss_server.Transport.parse} syntax *)
  codec : Toss_server.Protocol.codec;
  collection : string;
  requests : int;
  qps : float;  (** target offered load, requests/second *)
  concurrency : int;  (** worker threads (connections); the in-flight cap *)
  seed : int;  (** corpus, template draw and arrival-process seed *)
  n_papers : int;  (** corpus size to generate and ingest *)
  zipf_s : float;  (** template popularity skew; [0.] = uniform *)
  deadline_ms : int option;  (** per-request deadline forwarded on the wire *)
}

val default_config : target:string -> config
(** JSON codec, collection ["bib"], 400 requests at 200 qps, 8 workers,
    seed 42, 60 papers, zipf 1.1, no deadline. *)

type report = {
  requests : int;
  ok : int;
  errors : (string * int) list;  (** wire error code -> count *)
  transport_errors : int;
  docs : int;  (** documents ingested during setup *)
  elapsed_s : float;
  target_qps : float;
  achieved_qps : float;
  p50_ms : float;  (** open-loop latency percentiles: completion − scheduled arrival *)
  p90_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
}

val query_mix : seed:int -> n_papers:int -> string array
(** The TQL templates a run with the same [seed] and [n_papers] draws
    from — exposed so other drivers (the serving benchmark's hot-read
    workload) can offer the same mix without re-deriving it from the
    corpus. *)

val run : ?ingest:bool -> config -> (report, string) result
(** Generates and ingests the corpus (unless [ingest] is [false] —
    e.g. when pointing several runs at one server), then offers
    [requests] requests at [qps] and reports. [Error] only on setup
    failure (unreachable target, ingest rejection); request-level
    failures are counted in the report. *)

val report_to_json : report -> Toss_json.t

val failed : report -> bool
(** Whether any request failed (wire error or transport error) — the
    CLI's exit-status predicate. *)
