(** Whole-property verification: [φ(f, D_in, D_out)]. *)

type report = {
  verdict : Containment.verdict;
  engine : Containment.engine;
  seconds : float;
}

(** [verify ?deadline engine net prop] decides the safety property with
    the given engine and reports timing. Deadline expiry degrades the
    verdict to [Unknown {reason = Timeout; _}]. *)
val verify :
  ?deadline:Cv_util.Deadline.t ->
  Containment.engine ->
  Cv_nn.Network.t ->
  Property.t ->
  report

(** [prefer_unknown prev u engine] — which inconclusive answer
    {!verify_graceful} keeps across escalation rungs: a certified bound
    beats none; between two certified bounds the tighter (smaller) wins;
    between two bound-less unknowns the later one wins. Exposed for
    testing. *)
val prefer_unknown :
  (Containment.unknown * Containment.engine) option ->
  Containment.unknown ->
  Containment.engine ->
  (Containment.unknown * Containment.engine) option

(** [verify_graceful ?deadline net prop] — escalation chain with
    graceful degradation: cheap abstract domains first (symint →
    deeppoly → zonotope), then ReluVal-style splitting, then exact MILP
    only with remaining budget (and only for piecewise-linear networks).
    Decisive verdicts short-circuit; budget exhaustion yields
    [Unknown {reason = Timeout; _}] with the best salvaged certified
    bound — never hangs, never raises on expiry. *)
val verify_graceful :
  ?deadline:Cv_util.Deadline.t -> Cv_nn.Network.t -> Property.t -> report

(** Result of {!verify_with_abstractions}: the verdict plus, on success,
    inductive state abstractions [S_1..S_n] proving it. *)
type proof_result = {
  report : report;
  abstractions : Cv_interval.Box.t array option;
      (** [Some] only when the abstractions themselves prove safety
          ([S_n ⊆ D_out]) *)
}

(** [verify_with_abstractions ?deadline ?fallback net prop] first builds
    the inductive box chain ({!Cv_domains.Analyzer.abstractions}): when
    its [S_n ⊆ D_out], the property is proved {e and} the chain is a
    reusable proof artifact, reported under engine [box]. Otherwise falls
    back to the exact engine (default MILP). *)
val verify_with_abstractions :
  ?deadline:Cv_util.Deadline.t ->
  ?fallback:Containment.engine ->
  Cv_nn.Network.t ->
  Property.t ->
  proof_result
