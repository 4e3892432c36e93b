module Metrics = Toss_obs.Metrics

type t = {
  lock : Mutex.t;
  wake : Condition.t;
  (* Each job remembers when admission accepted it; the dequeuing
     worker turns the difference into the job's queue wait. *)
  jobs : ((queue_wait_s:float -> unit) * float) Queue.t;
  max_queue : int;
  mutable stopping : bool;
  mutable inflight : int;
  joining : Mutex.t;  (** held by [stop] until every worker is joined *)
  mutable domains : unit Domain.t list;  (** under [joining] *)
}

type outcome = Accepted | Overloaded | Stopped

let g_depth = Metrics.gauge "server.queue.depth"
let g_inflight = Metrics.gauge "server.inflight"
let m_shed = Metrics.counter "server.shed.total"
let h_queue_wait = Metrics.histogram "pool.queue_wait.seconds"

let note t =
  Metrics.set g_depth (float_of_int (Queue.length t.jobs));
  Metrics.set g_inflight (float_of_int t.inflight)

(* Workers exit only once the queue is drained AND the pool is stopping,
   so every accepted job runs even across shutdown. Each worker is a
   domain: jobs on different workers execute in parallel (separate
   minor heaps, no shared runtime lock), which is the whole point —
   queries pin immutable snapshots and never contend. *)
let rec worker t =
  Mutex.lock t.lock;
  while Queue.is_empty t.jobs && not t.stopping do
    Condition.wait t.wake t.lock
  done;
  match Queue.take_opt t.jobs with
  | None ->
      (* stopping && empty *)
      Mutex.unlock t.lock
  | Some (job, submitted_at) ->
      t.inflight <- t.inflight + 1;
      note t;
      Mutex.unlock t.lock;
      let queue_wait_s =
        Float.max 0. (Unix.gettimeofday () -. submitted_at)
      in
      Metrics.observe h_queue_wait queue_wait_s;
      (try job ~queue_wait_s with _ -> ());
      Mutex.lock t.lock;
      t.inflight <- t.inflight - 1;
      note t;
      Mutex.unlock t.lock;
      worker t

let create ~domains ~max_queue =
  let t =
    {
      lock = Mutex.create ();
      wake = Condition.create ();
      jobs = Queue.create ();
      max_queue;
      stopping = false;
      inflight = 0;
      joining = Mutex.create ();
      domains = [];
    }
  in
  t.domains <- List.init domains (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit t job =
  Mutex.lock t.lock;
  let outcome =
    if t.stopping then Stopped
    else if Queue.length t.jobs >= t.max_queue then (
      Metrics.incr m_shed;
      Overloaded)
    else begin
      Queue.push (job, Unix.gettimeofday ()) t.jobs;
      note t;
      Condition.signal t.wake;
      Accepted
    end
  in
  Mutex.unlock t.lock;
  outcome

(* A second caller waits on [joining] until the first has joined every
   worker, so [stop] returns only once the queue is drained, whoever
   calls it. *)
let stop t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  Mutex.lock t.joining;
  List.iter Domain.join t.domains;
  t.domains <- [];
  Mutex.unlock t.joining
