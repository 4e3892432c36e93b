type labels = (string * string) list

let bucket_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100.; 1_000.; 10_000.; infinity |]

(* Counters and gauges are single atomics (updates are one
   fetch-and-add / exchange, lock-free from any domain); a histogram
   mutates several fields per observation, so it carries its own mutex —
   uncontended in the common case of distinct series per call site. *)
type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  hlock : Mutex.t;
  mutable count : int;
  mutable sum : float;
  mutable hmin : float;
  mutable hmax : float;
  bucket_counts : int array;  (* non-cumulative; cumulated at snapshot time *)
}

type cell = C of counter | G of gauge | H of histogram

(* The process-wide registry, keyed by (name, sorted labels); all
   structural access (registration, snapshot, reset) is serialized by
   [registry_lock]. Handle updates never touch the lock. *)
let registry : (string * labels, cell) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let registry_locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let normalize labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register ?(labels = []) name make describe =
  let key = (name, normalize labels) in
  registry_locked (fun () ->
      match Hashtbl.find_opt registry key with
      | Some cell -> cell
      | None ->
          (* A name must keep one kind across all label sets. *)
          Hashtbl.iter
            (fun (n, _) cell ->
              if n = name && kind_name cell <> describe then
                invalid_arg
                  (Printf.sprintf "Metrics: %S already registered as a %s" name
                     (kind_name cell)))
            registry;
          let cell = make () in
          Hashtbl.replace registry key cell;
          cell)

let counter ?labels name =
  match register ?labels name (fun () -> C (Atomic.make 0)) "counter" with
  | C c -> c
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a counter" name)

let gauge ?labels name =
  match register ?labels name (fun () -> G (Atomic.make 0.)) "gauge" with
  | G g -> g
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a gauge" name)

let new_histogram () =
  {
    hlock = Mutex.create ();
    count = 0;
    sum = 0.;
    hmin = nan;
    hmax = nan;
    bucket_counts = Array.make (Array.length bucket_bounds) 0;
  }

let histogram ?labels name =
  match register ?labels name (fun () -> H (new_histogram ())) "histogram" with
  | H h -> h
  | _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a histogram" name)

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: counters only go up";
  ignore (Atomic.fetch_and_add c by)

let set g v = Atomic.set g v

let bucket_index v =
  let rec go i = if v <= bucket_bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  Mutex.lock h.hlock;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if h.count = 1 then begin
    h.hmin <- v;
    h.hmax <- v
  end
  else begin
    if v < h.hmin then h.hmin <- v;
    if v > h.hmax then h.hmax <- v
  end;
  let i = bucket_index v in
  h.bucket_counts.(i) <- h.bucket_counts.(i) + 1;
  Mutex.unlock h.hlock

let observe_int h v = observe h (float_of_int v)

type histogram_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;
}

type value = Counter of int | Gauge of float | Histogram of histogram_stats

type snapshot = (string * labels * value) list

(* Reads the histogram under its own lock, so a snapshot taken during a
   storm of observations still sees each series at one instant. *)
let stats_of (h : histogram) =
  Mutex.lock h.hlock;
  let count = h.count and sum = h.sum and hmin = h.hmin and hmax = h.hmax in
  let bucket_counts = Array.copy h.bucket_counts in
  Mutex.unlock h.hlock;
  let cumulative = ref 0 in
  let buckets =
    Array.to_list
      (Array.mapi
         (fun i bound ->
           cumulative := !cumulative + bucket_counts.(i);
           (bound, !cumulative))
         bucket_bounds)
  in
  { count; sum; min = hmin; max = hmax; buckets }

let snapshot () =
  registry_locked (fun () ->
      Hashtbl.fold
        (fun (name, labels) cell acc ->
          let value =
            match cell with
            | C c -> Counter (Atomic.get c)
            | G g -> Gauge (Atomic.get g)
            | H h -> Histogram (stats_of h)
          in
          (name, labels, value) :: acc)
        registry [])
  |> List.sort compare

let reset () =
  registry_locked (fun () ->
      Hashtbl.iter
        (fun _ cell ->
          match cell with
          | C c -> Atomic.set c 0
          | G g -> Atomic.set g 0.
          | H h ->
              Mutex.lock h.hlock;
              h.count <- 0;
              h.sum <- 0.;
              h.hmin <- nan;
              h.hmax <- nan;
              Array.fill h.bucket_counts 0 (Array.length h.bucket_counts) 0;
              Mutex.unlock h.hlock)
        registry)

let names snap =
  List.sort_uniq String.compare (List.map (fun (n, _, _) -> n) snap)

let find_counter snap ?(labels = []) name =
  let labels = normalize labels in
  List.find_map
    (function
      | n, l, Counter v when n = name && l = labels -> Some v | _ -> None)
    snap

let find_gauge snap ?(labels = []) name =
  let labels = normalize labels in
  List.find_map
    (function n, l, Gauge v when n = name && l = labels -> Some v | _ -> None)
    snap

let find_histogram snap ?(labels = []) name =
  let labels = normalize labels in
  List.find_map
    (function
      | n, l, Histogram h when n = name && l = labels -> Some h | _ -> None)
    snap

let quantile (s : histogram_stats) q =
  if s.count = 0 then nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int s.count in
    let clamp v = Float.max s.min (Float.min s.max v) in
    let rec go prev_bound prev_cum = function
      | [] -> s.max
      | (bound, cum) :: rest ->
          (* Skip empty buckets and those entirely below the target rank. *)
          if cum = prev_cum || float_of_int cum < target then go bound cum rest
          else begin
            let lower = clamp prev_bound in
            let upper = clamp bound in
            let frac =
              (target -. float_of_int prev_cum)
              /. float_of_int (cum - prev_cum)
            in
            lower +. (frac *. (upper -. lower))
          end
    in
    go 0. 0 s.buckets
  end

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let to_table snap =
  let lines =
    List.map
      (fun (name, labels, value) ->
        let key = name ^ render_labels labels in
        let rendered =
          match value with
          | Counter c -> string_of_int c
          | Gauge g -> Printf.sprintf "%g" g
          | Histogram { count = 0; _ } -> "count=0"
          | Histogram h ->
              Printf.sprintf "count=%d mean=%g p50=%g p95=%g p99=%g max=%g"
                h.count
                (h.sum /. float_of_int h.count)
                (quantile h 0.5) (quantile h 0.95) (quantile h 0.99) h.max
        in
        (key, rendered))
      snap
  in
  let width = List.fold_left (fun w (k, _) -> Stdlib.max w (String.length k)) 0 lines in
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%-*s  %s\n" width k v) lines)

(* -------------------------------- JSON -------------------------------- *)

let json_escape = Toss_json.escape

let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let to_json snap =
  let keyed f =
    List.filter_map
      (fun (name, labels, value) ->
        Option.map (fun v -> (name ^ render_labels labels, v)) (f value))
      snap
  in
  let counters =
    keyed (function Counter c -> Some (string_of_int c) | _ -> None)
  in
  let gauges = keyed (function Gauge g -> Some (json_float g) | _ -> None) in
  let histograms =
    keyed (function
      | Histogram h ->
          let buckets =
            List.map
              (fun (bound, count) ->
                ( (if bound = infinity then "+inf" else Printf.sprintf "%g" bound),
                  string_of_int count ))
              h.buckets
          in
          Some
            (json_obj
               [
                 ("count", string_of_int h.count);
                 ("sum", json_float h.sum);
                 ("min", json_float h.min);
                 ("max", json_float h.max);
                 ("p50", json_float (quantile h 0.5));
                 ("p95", json_float (quantile h 0.95));
                 ("p99", json_float (quantile h 0.99));
                 ("buckets", json_obj buckets);
               ])
      | _ -> None)
  in
  let section kvs =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) v) kvs)
    ^ "}"
  in
  json_obj
    [
      ("counters", section counters);
      ("gauges", section gauges);
      ("histograms", section histograms);
    ]

(* ----------------------------- Prometheus ------------------------------ *)

(* Text exposition format, version 0.0.4: what a stock Prometheus
   server scrapes. Registry names use dots ("server.requests.total");
   the metric-name charset is [a-zA-Z0-9_:], so every illegal byte
   maps to '_'. *)
let prom_name name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || c = '_'
        || (c >= '0' && c <= '9')
      in
      if not ok then Bytes.set b i '_')
    b;
  let s = Bytes.to_string b in
  if s = "" then "_"
  else if s.[0] >= '0' && s.[0] <= '9' then "_" ^ s
  else s

(* Label values admit any UTF-8 with backslash, quote and newline
   escaped. *)
let prom_label_value v =
  let buf = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let prom_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (prom_name k) (prom_label_value v))
             labels)
      ^ "}"

let to_prometheus snap =
  let buf = Buffer.create 1024 in
  let typed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* The snapshot is name-sorted, so all label sets of one metric are
     adjacent; the [typed] set keeps the mandatory "# TYPE" header to
     one occurrence per metric even if two registry names sanitize to
     the same exposition name. *)
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.replace typed name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  let sample name labels value =
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s\n" name (prom_labels labels) value)
  in
  List.iter
    (fun (name, labels, value) ->
      let n = prom_name name in
      match value with
      | Counter c ->
          type_line n "counter";
          sample n labels (string_of_int c)
      | Gauge g ->
          type_line n "gauge";
          sample n labels (prom_float g)
      | Histogram h ->
          type_line n "histogram";
          List.iter
            (fun (bound, cum) ->
              sample (n ^ "_bucket")
                (labels @ [ ("le", prom_float bound) ])
                (string_of_int cum))
            h.buckets;
          sample (n ^ "_sum") labels (prom_float h.sum);
          sample (n ^ "_count") labels (string_of_int h.count))
    snap;
  Buffer.contents buf
