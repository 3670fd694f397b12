(** Solving SVuDC — same network, enlarged domain (paper §IV-A).

    Each route returns a {!Report.attempt}; a subproblem violation never
    means the target property is unsafe (the stored abstractions
    over-approximate), so failed routes come back [Inconclusive] and the
    strategy moves on. The one exception is {!delta_cover}, whose
    subproblems check the target property directly and can therefore
    return a definitive [Unsafe] witness. Every [?engine] defaults to
    {!Cv_verify.Containment.Ladder}. *)

(** [trivial p] — the degenerate shortcut: if the "enlarged" domain is
    in fact contained in the proved [D_in], the old proof applies
    verbatim. *)
val trivial : Problem.svudc -> Report.attempt

(** [prop1 ?engine p] — proof reuse at layers 1 and 2 (Proposition 1):
    check [∀x ∈ D_in ∪ Δ_in, g₂(g₁(x)) ∈ S₂] on the two-layer prefix
    with an exact engine (default {!Cv_verify.Containment.Ladder}:
    symint first, cutoff MILP for the sides it leaves open). *)
val prop1 :
  ?deadline:Cv_util.Deadline.t ->
  ?engine:Cv_verify.Containment.engine ->
  Problem.svudc ->
  Report.attempt

(** [prop2 ?domain ?engine ?domains p] — proof reuse at layer [j+1]
    (Proposition 2): rebuild [S'] on the enlarged domain with the
    abstract [domain] (default symbolic intervals), then search — in
    parallel over [domains] workers — for a [j] whose handoff
    [∀x ∈ S'_j, g_{j+1}(x) ∈ S_{j+1}] holds (free box inclusion first,
    then the exact engine on the single-layer slice). *)
val prop2 :
  ?deadline:Cv_util.Deadline.t ->
  ?domain:Cv_domains.Analyzer.domain_kind ->
  ?engine:Cv_verify.Containment.engine ->
  ?domains:int ->
  Problem.svudc ->
  Report.attempt

(** [prop3 ?norm p] — Lipschitz-based reuse (Proposition 3): with stored
    ℓ (for [norm], default ∞) and measured κ, the property transfers
    when [S_n ⊕ ℓκ ⊆ D_out]. *)
val prop3 : ?norm:Cv_lipschitz.Lipschitz.norm -> Problem.svudc -> Report.attempt

(** [enlargement_slabs ~old_box ~new_box] covers
    [new_box \ old_box] with at most [2·dim] labelled axis-aligned
    slabs. *)
val enlargement_slabs :
  old_box:Cv_interval.Box.t ->
  new_box:Cv_interval.Box.t ->
  (string * Cv_interval.Box.t) array

(** [delta_cover ?engine ?domains p] — verify only the {e new} region:
    [D_in ∪ Δ_in \ D_in] is covered by at most [2·dim] axis-aligned
    slabs, each checked directly against [D_out] with the exact engine
    on the full network (in parallel); the old proof covers [D_in]. Not
    one of the paper's numbered propositions, but a direct consequence
    of its observation that only Δ_in is new. *)
val delta_cover :
  ?deadline:Cv_util.Deadline.t ->
  ?engine:Cv_verify.Containment.engine ->
  ?domains:int ->
  Problem.svudc ->
  Report.attempt
