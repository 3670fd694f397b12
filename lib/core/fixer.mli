(** Incremental abstraction fixing (paper §IV-C).

    When Proposition 4 fails at exactly one layer, the failing
    abstraction is rebuilt and propagated forward until it is recaptured
    by the stored chain (or reaches — and is checked against —
    [D_out]); only when that also fails is the instance left to a full
    re-verification. Every [?engine] defaults to
    {!Cv_verify.Containment.Ladder}. *)

type diagnosis = {
  failing : int list;  (** 1-based layer indices whose handoff failed *)
  sub_times : float array;  (** per-layer diagnostic times *)
}

(** [diagnose ?engine ?domains p] runs the n independent Prop.-4
    subproblems and reports which layers fail; [None] when the artifact
    carries no state abstractions. *)
val diagnose :
  ?deadline:Cv_util.Deadline.t ->
  ?engine:Cv_verify.Containment.engine ->
  ?domains:int ->
  Problem.svbtv ->
  diagnosis option

(** [fix ?engine ?domain p ~failing_layer] attempts the repair for a
    single failing (1-based) layer: rebuild [S'], propagate forward
    (free box inclusion first, exact handoff second), succeed on
    recapture or on a final [D_out] check. *)
val fix :
  ?deadline:Cv_util.Deadline.t ->
  ?engine:Cv_verify.Containment.engine ->
  ?domain:Cv_domains.Analyzer.domain_kind ->
  Problem.svbtv ->
  failing_layer:int ->
  Report.attempt

(** [repair ?engine ?domain ?domains p] — diagnose, then fix when the
    failure is localised to a single layer (the case §IV-C treats);
    a clean diagnosis is Proposition 4 itself, and multi-layer failures
    are reported inconclusive for the strategy to fall back on. *)
val repair :
  ?deadline:Cv_util.Deadline.t ->
  ?engine:Cv_verify.Containment.engine ->
  ?domain:Cv_domains.Analyzer.domain_kind ->
  ?domains:int ->
  Problem.svbtv ->
  Report.attempt
