(** Split certificates: the bisection tree of a ReluVal-style proof,
    kept as a reusable artifact. On each leaf of the partition, one-shot
    symbolic-interval analysis suffices to prove the target; the leaf
    list therefore supports cheap revalidation for fine-tuned networks
    (no new splitting) and selective repair. *)

type t = {
  input_box : Cv_interval.Box.t;  (** the certified domain *)
  target : Cv_interval.Box.t;  (** the certified output set *)
  leaves : Cv_interval.Box.t array;  (** partition of [input_box] *)
}

(** [prove ?deadline ?budget net ~input_box ~target] runs the splitting
    verifier and, on success, returns the certificate with its leaf
    partition; [None] when the property is not proved within the split
    budget, or when [deadline] (polled per split) expires — an
    interrupted attempt yields nothing reusable, so expiry degrades to
    [None] rather than raising. *)
val prove :
  ?deadline:Cv_util.Deadline.t ->
  ?budget:int ->
  Cv_nn.Network.t ->
  input_box:Cv_interval.Box.t ->
  target:Cv_interval.Box.t ->
  t option

(** [num_leaves c] is the partition size (1 = no splitting needed). *)
val num_leaves : t -> int

(** [revalidate ?domains c net'] re-checks every leaf against the stored
    target with one-shot symbolic intervals on [net'] — embarrassingly
    parallel; [true] proves [∀x ∈ input_box : net'(x) ∈ target]. *)
val revalidate : ?domains:int -> t -> Cv_nn.Network.t -> bool

(** [revalidate_detailed ?domains c net'] also reports the indices of
    failed leaves. *)
val revalidate_detailed : ?domains:int -> t -> Cv_nn.Network.t -> int list

(** [repair ?deadline ?budget ?domains c net'] re-splits only the
    failed leaves for the new network; [None] when the failed leaves
    cannot all be re-proved within the budget or before the deadline.
    [budget] is the {e total} number of new splits the repair may spend,
    shared across all failed leaves; [domains] parallelises the initial
    revalidation sweep. *)
val repair :
  ?deadline:Cv_util.Deadline.t ->
  ?budget:int ->
  ?domains:int ->
  t ->
  Cv_nn.Network.t ->
  t option

(** [repair_detailed ?deadline ?budget ?domains c net'] is {!repair}
    that also reports the indices of the stored leaves it re-split. *)
val repair_detailed :
  ?deadline:Cv_util.Deadline.t ->
  ?budget:int ->
  ?domains:int ->
  t ->
  Cv_nn.Network.t ->
  (t * int list) option

val to_json : t -> Cv_util.Json.t

val of_json : Cv_util.Json.t -> t
