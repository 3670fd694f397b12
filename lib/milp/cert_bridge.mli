(** Network-level MILP certificates: one {!Cv_cert.Cert.milp_goal} per
    finite bound of the safe output set, each backed by a branch tree of
    validated LP witnesses from {!Cv_lp.Lp_cert}.

    The big-M encoding step itself is untrusted (the checker cannot see
    that the MILP models the network); the goal's lowering frame is
    recorded so the checker can replay the bound translation, and the
    checker cross-examines each goal against concrete network
    evaluations. The emitted certificate is replayed through
    {!Cv_cert.Check} before being returned. *)

(** [goal enc compiled ~output ~side ~bound] certifies [output ≤ bound]
    ([`Upper]) or [output ≥ bound] ([`Lower]) on [compiled], the one
    lowering [Lp.compile ~fixable:enc.problem.binaries enc.problem.lp]
    that every goal of [enc] shares: it installs the goal's objective
    with {!Cv_lp.Lp.set_objective_compiled} and runs the certifying
    branch-and-bound towards [bound] in the lowering's frame, so
    [mg_target] lies between [bound] and the optimum. [None] when the
    bound fails, extraction fails or the node budget runs out. *)
val goal :
  ?max_nodes:int ->
  ?max_iters:int ->
  Relu_encoding.encoding ->
  Cv_lp.Lp.compiled ->
  output:int ->
  side:[ `Upper | `Lower ] ->
  bound:float ->
  Cv_cert.Cert.milp_goal option

(** [safe_cert ... net ~din ~dout] proves [f(din) ⊆ dout] with one MILP
    goal per finite bound of [dout], all on one lowering of the
    encoding — the exact-method counterpart of {!Cv_cert.Emit.safe_cert}.
    Self-validated; [None] as soon as a goal fails. *)
val safe_cert :
  ?max_nodes:int ->
  ?max_iters:int ->
  mode:string ->
  solver:string ->
  fingerprint:string ->
  Cv_nn.Network.t ->
  din:Cv_interval.Box.t ->
  dout:Cv_interval.Box.t ->
  Cv_cert.Cert.t option
