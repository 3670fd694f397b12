(** Outcomes and timing records for continuous-verification attempts.

    Timing follows the paper's accounting (Table I, footnote 3): when a
    proposition decomposes into independent subproblems, the reported
    parallel time is the {e maximum} subproblem time; the sequential sum
    is kept alongside for the ablation benches. *)

type outcome =
  | Safe  (** the sufficient condition holds; the property transfers *)
  | Unsafe of Cv_verify.Falsify.violation
      (** a concrete counterexample to the {e target} property *)
  | Inconclusive of string
      (** the sufficient condition failed without a counterexample *)
  | Exhausted of string
      (** the wall-clock deadline ran out before the attempt could
          decide; the property's status is unchanged *)

type timing = {
  wall : float;  (** actual wall-clock seconds of the attempt *)
  parallel : float;
      (** cost under full parallelisation: max over independent
          subproblems (equals [wall] for sequential attempts) *)
  sequential : float;  (** sum over subproblems *)
  subproblems : int;
}

(** [sequential_timing wall] is the timing of an undecomposed attempt. *)
let sequential_timing wall =
  { wall; parallel = wall; sequential = wall; subproblems = 1 }

type attempt = {
  name : string;  (** e.g. "prop1", "prop4", "fallback-full" *)
  outcome : outcome;
  timing : timing;
  detail : string;  (** free-form context for the log / report *)
}

(** [is_safe a] is true when the attempt proved the property. *)
let is_safe a = match a.outcome with Safe -> true | _ -> false

(** A full strategy run: every attempt in order, ending either with a
    successful one or with all failing. *)
type t = {
  attempts : attempt list;
  verdict : outcome;
  total_wall : float;
  decisive : string option;  (** name of the attempt that settled it *)
}

(** [conclude attempts] folds attempts into a run report: the verdict is
    the first non-inconclusive outcome, or the last attempt's
    inconclusive/exhausted message. An [Exhausted] attempt ends the run
    — once the budget is gone no later attempt could have run. *)
let conclude attempts =
  let total_wall = List.fold_left (fun acc a -> acc +. a.timing.wall) 0. attempts in
  let rec settle = function
    | [] -> (Inconclusive "no attempts ran", None)
    | a :: rest -> (
      match a.outcome with
      | Safe -> (Safe, Some a.name)
      | Unsafe v -> (Unsafe v, Some a.name)
      | Exhausted _ -> (a.outcome, None)
      | Inconclusive _ when rest = [] -> (a.outcome, None)
      | Inconclusive _ -> settle rest)
  in
  let verdict, decisive = settle attempts in
  { attempts; verdict; total_wall; decisive }

(** [outcome_string o] is a short printable verdict. *)
let outcome_string = function
  | Safe -> "SAFE"
  | Unsafe v ->
    Printf.sprintf "UNSAFE (output %d %s by %.4g)" v.Cv_verify.Falsify.neuron
      (match v.Cv_verify.Falsify.side with
      | `Upper -> "above bound"
      | `Lower -> "below bound")
      v.Cv_verify.Falsify.margin
  | Inconclusive msg -> "INCONCLUSIVE: " ^ msg
  | Exhausted msg -> "UNKNOWN (budget exhausted): " ^ msg

(** [pp ppf t] prints the run: one line per attempt plus the verdict. *)
let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun a ->
      Format.fprintf ppf "%-14s %-12s wall=%.4fs par=%.4fs (%d subproblems) %s@,"
        a.name
        (match a.outcome with
        | Safe -> "safe"
        | Unsafe _ -> "unsafe"
        | Inconclusive _ -> "inconclusive"
        | Exhausted _ -> "exhausted")
        a.timing.wall a.timing.parallel a.timing.subproblems a.detail)
    t.attempts;
  Format.fprintf ppf "verdict: %s (%.4fs total%s)@]" (outcome_string t.verdict)
    t.total_wall
    (match t.decisive with Some n -> ", decided by " ^ n | None -> "")

(** [to_string t] renders {!pp}. *)
let to_string t = Format.asprintf "%a" pp t
