type t = {
  name : string;
  elapsed_s : float;
  alloc_bytes : float;
  meta : (string * string) list;
  children : t list;
}

let tracing = Atomic.make false
let set_enabled b = Atomic.set tracing b

(* An open span under construction; children accumulate in reverse. *)
type frame = {
  fname : string;
  mutable fmeta : (string * string) list;
  start_s : float;
  start_alloc : float;  (* words; 0 when tracing is disabled *)
  mutable rev_children : t list;
}

(* The open-span stack is domain-local: each of the server's pool
   domains runs one query at a time, so its stack nests cleanly while
   other domains trace their own queries in parallel. (Systhreads within
   one domain share that domain's stack — interleaved spans from such
   threads can shear a trace, never crash; the server keeps its reader
   threads span-free.) *)
let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let word_bytes = float_of_int (Sys.word_size / 8)

(* Finish the top frame into a node. *)
let finish frame =
  let elapsed_s = Unix.gettimeofday () -. frame.start_s in
  let alloc_bytes =
    if Atomic.get tracing then
      Float.max 0. ((allocated_words () -. frame.start_alloc) *. word_bytes)
    else 0.
  in
  {
    name = frame.fname;
    elapsed_s;
    alloc_bytes;
    meta = frame.fmeta;
    children = List.rev frame.rev_children;
  }

let exec ?(meta = []) name fn =
  let stack = stack () in
  (* Stamp the frame with the domain's current trace id (if any) at
     open time, so every node of a request's span tree self-identifies
     even when subtrees are serialized separately. CLI runs never set a
     trace id, so their rendered spans are unchanged. *)
  let meta =
    match Trace.get () with
    | Some id -> ("trace_id", id) :: meta
    | None -> meta
  in
  let frame =
    {
      fname = name;
      fmeta = meta;
      start_s = Unix.gettimeofday ();
      start_alloc = (if Atomic.get tracing then allocated_words () else 0.);
      rev_children = [];
    }
  in
  stack := frame :: !stack;
  let close () =
    (match !stack with
    | top :: rest when top == frame -> stack := rest
    | _ ->
        (* Unbalanced nesting can only arise from an exception that
           skipped inner closes; drop frames down to ours. *)
        let rec pop = function
          | top :: rest when top == frame -> rest
          | _ :: rest -> pop rest
          | [] -> []
        in
        stack := pop !stack);
    let node = finish frame in
    (match !stack with
    | parent :: _ -> parent.rev_children <- node :: parent.rev_children
    | [] -> ());
    node
  in
  match fn () with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

let annotate kvs =
  match !(stack ()) with
  | [] -> ()
  | frame :: _ -> frame.fmeta <- frame.fmeta @ kvs

let with_ ?meta name fn = fst (exec ?meta name fn)

let run ?meta name fn =
  (* Temporarily detach from any enclosing stack (of this domain) so the
     caller gets a self-contained tree. *)
  let stack = stack () in
  let saved = !stack in
  stack := [];
  Fun.protect
    ~finally:(fun () -> stack := saved)
    (fun () -> exec ?meta name fn)

let rec find t name =
  if t.name = name then Some t
  else List.find_map (fun c -> find c name) t.children

let human_bytes b =
  if b >= 1048576. then Printf.sprintf "%.1fMB" (b /. 1048576.)
  else if b >= 1024. then Printf.sprintf "%.1fkB" (b /. 1024.)
  else Printf.sprintf "%.0fB" b

let pp ppf t =
  let root_s = if t.elapsed_s > 0. then t.elapsed_s else 1. in
  let rec go indent span =
    Format.fprintf ppf "%s%-*s %9.6fs %5.1f%%" indent
      (Stdlib.max 1 (24 - String.length indent))
      span.name span.elapsed_s
      (100. *. span.elapsed_s /. root_s);
    if span.alloc_bytes > 0. then
      Format.fprintf ppf "  %s" (human_bytes span.alloc_bytes);
    List.iter
      (fun (k, v) -> Format.fprintf ppf "  %s=%s" k v)
      span.meta;
    Format.fprintf ppf "@,";
    List.iter (go (indent ^ "  ")) span.children
  in
  Format.fprintf ppf "@[<v>";
  go "" t;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

module J = Toss_json

let rec to_json t =
  J.Obj
    ([ ("name", J.Str t.name); ("elapsed_s", J.Num t.elapsed_s);
       ("alloc_bytes", J.Num t.alloc_bytes) ]
    @ (match t.meta with
      | [] -> []
      | m -> [ ("meta", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) m)) ])
    @ [ ("children", J.Arr (List.map to_json t.children)) ])

let slow_record ~threshold_s root =
  if root.elapsed_s < threshold_s then None
  else
    let trace_id =
      match List.assoc_opt "trace_id" root.meta with
      | Some id -> [ ("trace_id", J.Str id) ]
      | None -> []
    in
    Some
      (J.to_string
         (J.Obj
            ((("type", J.Str "slow_query") :: trace_id)
            @ [
                ("threshold_s", J.Num threshold_s);
                ("elapsed_s", J.Num root.elapsed_s);
                ("trace", to_json root);
              ])))
