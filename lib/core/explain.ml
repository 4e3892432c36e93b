module Pattern = Toss_tax.Pattern
module Condition = Toss_tax.Condition
module Xpath = Toss_store.Xpath

type expansion = { operator : string; constant : string; terms : string list }

type t = {
  mode : Rewrite.mode;
  label_queries : (int * string) list;
  expansions : expansion list;
  residual_atoms : string list;
  plan : Plan.t option;
  trace : Toss_obs.Span.t option;
}

let atom_to_string atom = Format.asprintf "%a" Condition.pp atom

(* An atom is pushable when it is a node-local top-level conjunct; those
   are exactly what [Rewrite] turns into name tests and predicates. *)
let residual_atoms_of (pattern : Pattern.t) =
  let condition = pattern.Pattern.condition in
  let local =
    List.concat_map (Condition.local_atoms condition) (Pattern.labels pattern)
  in
  List.filter (fun atom -> not (List.memq atom local)) (Condition.atoms condition)

let expansions_of ~mode seo (pattern : Pattern.t) =
  if mode = Rewrite.Tax then []
  else
    List.filter_map
      (fun atom ->
        match atom with
        | Condition.Sim (_, Condition.Str s) | Condition.Sim (Condition.Str s, _) ->
            Some { operator = "~"; constant = s; terms = Rewrite.similar_terms seo s }
        | Condition.Isa (_, Condition.Str s) | Condition.Below (_, Condition.Str s) ->
            Some { operator = "isa"; constant = s; terms = Rewrite.isa_below seo s }
        | Condition.Part_of (_, Condition.Str s) ->
            Some { operator = "part_of"; constant = s; terms = Rewrite.part_below seo s }
        | _ -> None)
      (Condition.atoms pattern.Pattern.condition)

let explain ?(mode = Rewrite.Toss) seo pattern =
  let queries = Rewrite.label_queries ~mode seo pattern in
  {
    mode;
    label_queries = List.map (fun (l, q) -> (l, Xpath.to_string q)) queries;
    expansions = expansions_of ~mode seo pattern;
    residual_atoms = List.map atom_to_string (residual_atoms_of pattern);
    plan = None;
    trace = None;
  }

let with_trace t trace = { t with trace = Some trace }
let with_plan t plan = { t with plan = Some plan }

let pp ppf t =
  Format.fprintf ppf "@[<v>mode: %s@,"
    (match t.mode with Rewrite.Tax -> "TAX" | Rewrite.Toss -> "TOSS");
  Format.fprintf ppf "store queries:@,";
  List.iter
    (fun (label, q) -> Format.fprintf ppf "  #%d: %s@," label q)
    t.label_queries;
  if t.expansions <> [] then begin
    Format.fprintf ppf "expansions:@,";
    List.iter
      (fun e ->
        Format.fprintf ppf "  %s %S -> %d term(s)@," e.operator e.constant
          (List.length e.terms))
      t.expansions
  end;
  if t.residual_atoms <> [] then begin
    Format.fprintf ppf "re-checked during assembly:@,";
    List.iter (fun a -> Format.fprintf ppf "  %s@," a) t.residual_atoms
  end;
  (match t.plan with
  | None -> ()
  | Some plan ->
      Format.fprintf ppf "physical plan:@,";
      List.iter
        (fun l -> Format.fprintf ppf "  %s@," l)
        (String.split_on_char '\n' (Plan.to_string plan)));
  (match t.trace with
  | None -> ()
  | Some trace ->
      Format.fprintf ppf "execution trace:@,%a@," Toss_obs.Span.pp trace);
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

let to_json t =
  let str s = Toss_json.quote s in
  let arr items = "[" ^ String.concat "," items ^ "]" in
  let queries =
    List.map
      (fun (label, q) -> Printf.sprintf "{\"label\":%d,\"xpath\":%s}" label (str q))
      t.label_queries
  in
  let expansions =
    List.map
      (fun e ->
        Printf.sprintf "{\"operator\":%s,\"constant\":%s,\"terms\":%s}"
          (str e.operator) (str e.constant)
          (arr (List.map str e.terms)))
      t.expansions
  in
  Printf.sprintf
    "{\"mode\":%s,\"label_queries\":%s,\"expansions\":%s,\"residual_atoms\":%s%s%s}"
    (str (match t.mode with Rewrite.Tax -> "tax" | Rewrite.Toss -> "toss"))
    (arr queries) (arr expansions)
    (arr (List.map str t.residual_atoms))
    (match t.plan with
    | None -> ""
    | Some plan ->
        ",\"plan\":"
        ^ arr (List.map str (String.split_on_char '\n' (Plan.to_string plan))))
    (match t.trace with
    | None -> ""
    | Some trace -> ",\"trace\":" ^ Toss_obs.Span.to_json trace)
