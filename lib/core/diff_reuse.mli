(** SVbTV via differential verification — a ReluDiff-flavoured route the
    paper's related-work section points at (its ref [20]) but does not
    exploit.

    [ε = max |f'(x) − f(x)|] over the (enlarged) domain is bounded by
    differential interval analysis ({!Cv_diffverify.Diffverify}); the
    property transfers when [S_n ⊕ ℓκ ⊕ ε ⊆ D_out] (ℓ the stored ∞-norm
    constant; the ℓκ term drops when [Δ_in = ∅]). One cheap forward
    sweep, no solver calls. *)

(** [prop_diff p] runs the differential reuse route. *)
val prop_diff : Problem.svbtv -> Report.attempt
