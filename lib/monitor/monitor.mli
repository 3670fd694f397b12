(** Abstraction-based runtime monitoring of neuron values (the paper's
    monitored "Flatten" bounds): build [D_in] from observed feature
    ranges plus a buffer, flag out-of-distribution feature vectors in
    operation, and turn the recorded events into [D_in ∪ Δ_in] and κ for
    the next verification round.

    All operations are thread-safe: the monitor is meant to be shared
    between a serving thread calling {!observe} and a background
    verification loop calling {!enlarged_box}/{!kappa}/{!commit}. *)

type event = {
  features : Cv_linalg.Vec.t;  (** the violating feature vector *)
  overshoot : float;  (** ∞-norm distance outside the current box *)
  index : int;  (** running sample counter at detection time *)
}

(** Classification of one observation. *)
type observation =
  | In_distribution  (** inside the monitored box: nothing recorded *)
  | Ood of event  (** outside the box: recorded as a pending event *)
  | Rejected
      (** the vector had a NaN or infinite component, or a length other
          than the box's dimension: counted via {!rejected_count}, never
          recorded — a non-finite overshoot would poison {!kappa}
          forever *)

type t

(** [of_samples ?buffer features] builds the initial [D_in]: the
    bounding box of the observed feature vectors, enlarged by [buffer]
    (fraction of each axis width; default 0.05). *)
val of_samples : ?buffer:float -> Cv_linalg.Vec.t list -> t

(** [of_box box] starts monitoring from a given bound. *)
val of_box : Cv_interval.Box.t -> t

(** [current t] is the monitored box (the verified [D_in]). *)
val current : t -> Cv_interval.Box.t

(** [events t] lists pending out-of-distribution events, oldest
    first. *)
val events : t -> event list

(** [event_count t] is the number of pending OOD events (O(1)). *)
val event_count : t -> int

(** [rejected_count t] is the number of malformed (non-finite or
    wrong-length) observations discarded so far. *)
val rejected_count : t -> int

(** [observe_class t x] feeds one feature vector and classifies it:
    non-finite and wrong-length vectors are rejected and only counted, in-distribution
    vectors pass, out-of-distribution vectors are recorded and returned
    as an event. *)
val observe_class : t -> Cv_linalg.Vec.t -> observation

(** [observe t x] is {!observe_class} collapsed to the historical
    interface: [Some ev] for an out-of-distribution vector, [None] for
    in-distribution {e and} rejected ones. *)
val observe : t -> Cv_linalg.Vec.t -> event option

(** [enlarged_box ?margin t] is [D_in ∪ Δ_in] as a box: the monitored
    box joined with every recorded event point, each padded by
    [margin]. *)
val enlarged_box : ?margin:float -> t -> Cv_interval.Box.t

(** [commit t box] installs an enlarged box (after re-verification
    succeeded) and clears the events it covers; events outside [box] —
    observed after the enlargement was computed — stay pending so they
    can trigger the next round. Raises [Invalid_argument] when [box]
    does not contain the current one. *)
val commit : t -> Cv_interval.Box.t -> unit

(** [kappa ?norm t] quantifies the pending enlargement: the maximum
    distance from recorded events to the current box (the paper's κ for
    Proposition 3). *)
val kappa : ?norm:[ `Linf | `L2 ] -> t -> float

(** [monitored_layer_features net ~layer x] extracts the feature vector
    the monitor watches: the output of layer [layer] (0-based) of [net]
    at input [x]. *)
val monitored_layer_features :
  Cv_nn.Network.t -> layer:int -> Cv_linalg.Vec.t -> Cv_linalg.Vec.t
