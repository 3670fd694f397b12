(** The local containment check — the workhorse of proof reuse.

    Every sufficient condition in the paper reduces to queries of the
    form [∀x ∈ B : g(x) ∈ T] where [g] is a small slice of the network,
    [B] an input box and [T] a stored state abstraction (or [D_out]).
    This module answers such queries with a selectable engine. *)

type engine =
  | Abstract of Cv_domains.Analyzer.domain_kind
      (** one-shot abstract interpretation: cheap, incomplete *)
  | Symint_split of int
      (** symbolic intervals with input bisection (ReluVal-style);
          the payload caps the number of splits *)
  | Milp  (** exact big-M encoding with cutoff queries; complete for
              piecewise-linear slices *)
  | Ladder
      (** cost-ordered [Milp]: the slice's one-shot symint reach closes
          every output side whose bound lies inside the target's with no
          tolerance (no sampling, no encoding when all close); [Milp]'s
          sampler and cutoff queries then run, in the same order, for
          the open sides only. Counts [verify.ladder.closed] and
          [verify.ladder.open]. Same verdicts and witnesses as [Milp]
          up to float rounding; the default for every reuse route *)

(** [engine_name e] is a printable engine label. *)
val engine_name : engine -> string

(** Why an engine answered [Unknown]. *)
type unknown_reason =
  | Imprecise  (** abstract over-approximation too coarse *)
  | Budget  (** split/node budget exhausted *)
  | Timeout  (** wall-clock deadline expired *)
  | Numerical  (** solver anomaly (infeasible/unbounded relaxation) *)
  | Crash
      (** the engine died repeatedly despite supervised retries; the
          query degrades instead of killing the run *)

(** Structured payload of an [Unknown] verdict. *)
type unknown = {
  reason : unknown_reason;
  message : string;  (** human-readable diagnosis *)
  best_bound : float option;
      (** certified partial bound salvaged before giving up (e.g. the
          branch-and-bound incumbent bound at deadline expiry) *)
}

type verdict = Proved | Violated of Falsify.violation | Unknown of unknown

(** [reason_name r] is a printable label for an {!unknown_reason}. *)
val reason_name : unknown_reason -> string

(** [unknown ?best_bound reason message] builds an [Unknown] verdict. *)
val unknown : ?best_bound:float -> unknown_reason -> string -> verdict

(** [is_proved v] is true for [Proved]. *)
val is_proved : verdict -> bool

(** [check ?deadline ?domains engine net ~input_box ~target] decides (or
    attempts) [∀x ∈ input_box : net(x) ∈ target]. [domains > 1] runs the
    [Milp] engine's branch-and-bound dives on parallel domains (other
    engines ignore it); verdicts stay deterministic. Never raises on
    budget exhaustion: when the optional [deadline] expires mid-query
    the verdict degrades to [Unknown { reason = Timeout; _ }], carrying
    any certified partial bound the engine salvaged. *)
val check :
  ?deadline:Cv_util.Deadline.t ->
  ?domains:int ->
  engine ->
  Cv_nn.Network.t ->
  input_box:Cv_interval.Box.t ->
  target:Cv_interval.Box.t ->
  verdict

(** [check_timed ?deadline ?domains engine net ~input_box ~target] also
    reports wall-clock seconds — the quantity the Table I reproduction
    aggregates. *)
val check_timed :
  ?deadline:Cv_util.Deadline.t ->
  ?domains:int ->
  engine ->
  Cv_nn.Network.t ->
  input_box:Cv_interval.Box.t ->
  target:Cv_interval.Box.t ->
  verdict * float
