(** LP witness extraction — the untrusted producer of {!Cv_cert}
    LP-level certificates.

    A witness is the multiplier vector behind the simplex's own verdict
    ({!Simplex.witness}): the vector a warm solve's certification
    already computed and checked, or for a cold verdict the same
    singleton-reduced LU of the final basis, solved on demand. Each
    witness is then validated with outward-rounded arithmetic (the
    checker's obligations) against the certificate's system with the
    solve's own right-hand side before being handed out — extraction
    failures degrade emission, never soundness. *)

(** [lp_certificate ~mode ~solver ~fingerprint c] solves the compiled
    model and wraps its verdict's validated witness as a full
    self-validated certificate: {!Cv_cert.Cert.Lp_infeasible} +
    {!Cv_cert.Cert.P_farkas}, or {!Cv_cert.Cert.Lp_min_at_least} +
    {!Cv_cert.Cert.P_dual} at the certified bound. [None] on stall,
    unboundedness, a singular basis or a witness that fails its outward
    validation. *)
val lp_certificate :
  ?max_iters:int ->
  mode:string ->
  solver:string ->
  fingerprint:string ->
  Lp.compiled ->
  Cv_cert.Cert.t option

(** Result of {!branch_and_certify}: a branch tree over the compiled
    model's binaries whose leaves all carry validated witnesses, proving
    [std_objective ≥ br_bound] for {e every} 0/1 completion.
    [br_system] is snapshotted with all binaries relaxed to [0, 1] — the
    rhs base the checker rewrites per leaf. *)
type branch_result = {
  br_system : Cv_cert.Cert.lp_system;
  br_binaries : Cv_cert.Cert.milp_binary array;
  br_tree : Cv_cert.Cert.milp_tree;
  br_bound : float;
}

(** [branch_and_certify c ~binaries] runs a small depth-first
    branch-and-bound over [binaries] (fixing through
    {!Lp.set_bounds_compiled}), branching on the first fractional binary
    and taking each leaf's witness from the solve that closed it.

    Without [target] a node closes only when it is infeasible or its
    relaxation is integral, so in exact arithmetic [br_bound] is the
    MILP optimum. With [target] (a standard-form bound, in
    {!Lp.compiled_frame}'s frame) each node is solved with a cutoff a
    hair past it, and closes as soon as it is infeasible or its
    validated witness reaches [target]: the search branches only while
    a node can still fall below [target], and [br_bound ≥ target] is
    the least leaf value, not the optimum. An integral node short of
    [target] refutes it ([None]).

    [br_bound] is [target] (or 0) when every leaf is infeasible.
    [max_nodes] bounds the tree (default 512). The compiled model is
    left with all binaries relaxed. *)
val branch_and_certify :
  ?max_nodes:int ->
  ?max_iters:int ->
  ?target:float ->
  Lp.compiled ->
  binaries:Lp.var list ->
  branch_result option

(** [milp_certificate ~mode ~solver ~fingerprint c ~binaries] is
    {!branch_and_certify} wrapped as a self-validated
    {!Cv_cert.Cert.Milp_min_at_least} certificate at [br_bound]. *)
val milp_certificate :
  ?max_nodes:int ->
  ?max_iters:int ->
  mode:string ->
  solver:string ->
  fingerprint:string ->
  Lp.compiled ->
  binaries:Lp.var list ->
  Cv_cert.Cert.t option
