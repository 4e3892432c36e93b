module Metrics = Toss_obs.Metrics

type key = { collection : string; config : string; mode : string; tql : string }

type entry = { version : int; trees : Toss_json.t list; count : int; compute_ms : float }

type lookup = Hit of entry | Delta of entry | Miss

type fault = No_fault | Extend_across_seo | Extend_skip_new_docs

let fault = ref No_fault

(* An entry with the SEO it was computed under, held weakly: once the
   session has moved on to another SEO and no pin holds the old one, the
   GC takes it, and the entry can only miss. *)
type stored = { entry : entry; under : (Toss_core.Seo.t, unit) Ephemeron.K1.t }

type t = {
  lock : Mutex.t;
  capacity : int;
  table : (key, stored) Hashtbl.t;
  order : key Queue.t;
      (* the table's keys in first-insertion order, for FIFO eviction:
         entries leave only by eviction, so the two always agree *)
}

let m_hits = Metrics.counter "server.cache.hits"
let m_misses = Metrics.counter "server.cache.misses"
let m_deltas = Metrics.counter "server.cache.deltas"
let m_delta_docs = Metrics.histogram "server.cache.delta_docs"
let m_evictions = Metrics.counter "server.cache.evictions"
let g_entries = Metrics.gauge "server.cache.entries"

let create ?(capacity = 256) () =
  {
    lock = Mutex.create ();
    capacity;
    table = Hashtbl.create (max 16 capacity);
    order = Queue.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let classify { entry = e; under } ~version ~seo =
  let same_seo = Ephemeron.K1.query under seo = Some () in
  if same_seo && e.version = version then Hit e
  else if (same_seo || !fault = Extend_across_seo) && e.version <= version then Delta e
  else Miss

let find t key ~version ~seo =
  let lookup =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some stored -> classify stored ~version ~seo
        | None -> Miss)
  in
  (match lookup with
  | Hit _ -> Metrics.incr m_hits
  | Delta e ->
      Metrics.incr m_deltas;
      Metrics.observe_int m_delta_docs (version - e.version)
  | Miss -> Metrics.incr m_misses);
  lookup

let publish t key ~seo entry =
  if t.capacity > 0 then
    let stored = { entry; under = Ephemeron.K1.make seo () } in
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some old when old.entry.version > entry.version -> ()
        | Some _ -> Hashtbl.replace t.table key stored
        | None ->
            if Hashtbl.length t.table >= t.capacity then
              Option.iter
                (fun oldest ->
                  Hashtbl.remove t.table oldest;
                  Metrics.incr m_evictions)
                (Queue.take_opt t.order);
            Queue.push key t.order;
            Hashtbl.replace t.table key stored;
            Metrics.set g_entries (float_of_int (Hashtbl.length t.table)))

let size t = locked t (fun () -> Hashtbl.length t.table)
