(* The current request's trace id, one slot per domain. Like the span
   stack (span.ml) this is Domain.DLS state: the server's pool domains
   run one request at a time, so a slot set around a job covers exactly
   that job's spans. Systhreads within a domain share the slot — which
   is why the server sets it only inside pool jobs, never from its
   reader threads. *)
let slot : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let get () = !(Domain.DLS.get slot)

let with_id id fn =
  let cell = Domain.DLS.get slot in
  let saved = !cell in
  cell := Some id;
  Fun.protect ~finally:(fun () -> cell := saved) fn

(* ------------------------------ Generation ----------------------------- *)

(* splitmix64 over a process-unique atomic counter: ids are unique
   within the process by construction (distinct counter values) and
   unlikely to collide across restarts (the seed folds in wall-clock
   microseconds and the pid). Cheap enough to run per request. *)

let splitmix64 x =
  let open Int64 in
  let x = add x 0x9E3779B97F4A7C15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  logxor x (shift_right_logical x 31)

let seed =
  let t = Unix.gettimeofday () in
  Int64.logxor
    (Int64.of_float (t *. 1e6))
    (splitmix64 (Int64.of_int (Unix.getpid ())))

let next = Atomic.make 0

let generate () =
  let n = Atomic.fetch_and_add next 1 in
  Printf.sprintf "%016Lx" (splitmix64 (Int64.add seed (Int64.of_int n)))

(* ------------------------------ Validation ----------------------------- *)

let max_length = 128

let is_valid id =
  let n = String.length id in
  n >= 1 && n <= max_length
  && String.for_all (fun c -> c >= '!' && c <= '~') id
