(** Local subproblems: the one runner every reuse route checks its
    containment queries through, and the one rule that folds their
    verdicts into an attempt outcome (paper Propositions 1, 2, 4 and 5;
    timing as in Table I, footnote 3). *)

module C = Cv_verify.Containment

type item = {
  label : string;
  slice : Cv_nn.Network.t;
  input_box : Cv_interval.Box.t;
  target : Cv_interval.Box.t;
}

let item label slice ~input_box ~target = { label; slice; input_box; target }

type sub_result = { label : string; verdict : C.verdict; seconds : float }

type run = { results : sub_result array; timing : Report.timing }

let run ?deadline ?domains engine items =
  let results, wall =
    Cv_util.Timer.time (fun () ->
        Cv_util.Parallel.map ?domains
          (fun (i : item) ->
            let verdict, seconds =
              C.check_timed ?deadline engine i.slice ~input_box:i.input_box
                ~target:i.target
            in
            { label = i.label; verdict; seconds })
          items)
  in
  let times = Array.map (fun r -> r.seconds) results in
  { results;
    timing =
      { Report.wall;
        parallel = Array.fold_left Float.max 0. times;
        sequential = Array.fold_left ( +. ) 0. times;
        subproblems = Array.length results } }

let reason = function
  | C.Proved -> "proved"
  | C.Violated v ->
    Printf.sprintf "violated (margin %.4g at output %d)" v.Cv_verify.Falsify.margin
      v.Cv_verify.Falsify.neuron
  | C.Unknown { C.message; best_bound = None; _ } -> message
  | C.Unknown { C.message; best_bound = Some b; _ } ->
    Printf.sprintf "%s [best bound %.6g]" message b

let outcome ?(direct = false) results =
  let failed =
    List.filter (fun r -> not (C.is_proved r.verdict)) (Array.to_list results)
  in
  let violation =
    List.find_map
      (fun r -> match r.verdict with C.Violated v -> Some v | _ -> None)
      failed
  in
  let timeout =
    List.find_opt
      (fun r ->
        match r.verdict with
        | C.Unknown { C.reason = C.Timeout; _ } -> true
        | _ -> false)
      failed
  in
  let failures names =
    Printf.sprintf "%d/%d subproblems failed (%s)" (List.length failed)
      (Array.length results) names
  in
  match (failed, violation, timeout) with
  | [], _, _ -> Report.Safe
  | _, Some v, _ when direct -> Report.Unsafe v
  | _, _, Some t ->
    Report.Exhausted
      (failures (String.concat ", " (List.map (fun r -> r.label) failed))
      ^ ": " ^ reason t.verdict)
  | _ ->
    Report.Inconclusive
      (failures
         (String.concat "; "
            (List.map (fun r -> r.label ^ ": " ^ reason r.verdict) failed)))

let attempt ?direct ~name ~detail r =
  { Report.name; outcome = outcome ?direct r.results; timing = r.timing; detail }

let sequence (a : Report.timing) (b : Report.timing) =
  { Report.wall = a.wall +. b.wall;
    parallel = a.parallel +. b.parallel;
    sequential = a.sequential +. b.sequential;
    subproblems = a.subproblems + b.subproblems }

let abstraction_required = "artifact carries no state abstractions"

let no_abstractions name =
  { Report.name;
    outcome = Report.Inconclusive abstraction_required;
    timing = Report.sequential_timing 0.;
    detail = "" }
