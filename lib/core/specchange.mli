(** Safety Verification under Specification Change (SVuSC) — the
    paper's concluding-remarks direction ("continuous evolution of the
    quantitative specification"), implemented as a third problem class
    alongside SVuDC and SVbTV: the network is unchanged, the safe output
    set evolves from [D_out] to [D_out'], optionally together with a
    domain enlargement. *)

type t = {
  net : Cv_nn.Network.t;
  artifact : Cv_artifacts.Artifacts.t;
  new_dout : Cv_interval.Box.t;
  new_din : Cv_interval.Box.t;  (** = old D_in when only the spec moved *)
}

(** [make ~net ~artifact ~new_dout ?new_din ()] validates and builds an
    SVuSC instance. *)
val make :
  net:Cv_nn.Network.t ->
  artifact:Cv_artifacts.Artifacts.t ->
  new_dout:Cv_interval.Box.t ->
  ?new_din:Cv_interval.Box.t ->
  unit ->
  t

(** [target_property p] is [φ(f, D_in ∪ Δ_in, D_out')]. *)
val target_property : t -> Cv_verify.Property.t

(** [trivial p] — a relaxed specification ([D_out ⊆ D_out']) with an
    unchanged domain inherits the proof. *)
val trivial : t -> Report.attempt

(** [chain p] — the stored [S_n], inflated by ℓκ (ℓ the stored ∞-norm
    constant) when the domain also grew, fits the new specification. *)
val chain : t -> Report.attempt

(** [solve ?deadline ?config p] runs the SVuSC pipeline: trivial →
    chain → the from-scratch decision on the new property
    ({!Strategy.from_scratch}). Budget expiry ends the run with an
    [Exhausted] verdict. *)
val solve : ?deadline:Cv_util.Deadline.t -> ?config:Strategy.config -> t -> Report.t
