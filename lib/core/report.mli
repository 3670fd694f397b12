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
val sequential_timing : float -> timing

type attempt = {
  name : string;  (** e.g. "prop1", "prop4", "fallback-full" *)
  outcome : outcome;
  timing : timing;
  detail : string;  (** free-form context for the log / report *)
}

(** [is_safe a] is true when the attempt proved the property. *)
val is_safe : attempt -> bool

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
    inconclusive/exhausted message. An [Exhausted] attempt ends the
    run. *)
val conclude : attempt list -> t

(** [outcome_string o] is a short printable verdict. *)
val outcome_string : outcome -> string

(** [pp ppf t] prints the run: one line per attempt plus the verdict. *)
val pp : Format.formatter -> t -> unit

(** [to_string t] renders {!pp}. *)
val to_string : t -> string
