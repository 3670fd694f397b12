(** Abstraction-based runtime monitoring of neuron values.

    Mirrors the paper's setup (and its refs [1], [2]): the input bound
    [D_in] of the verified head is built by recording per-neuron min/max
    of the monitored feature layer over the training set, plus a buffer;
    in operation, every input whose features escape the box is an
    out-of-distribution event, and the recorded overshoots form [Δ_in]
    for the next verification round.

    The monitor is shared mutable state between the serving path
    ({!observe}) and a background verification loop
    ({!enlarged_box}/{!kappa}/{!commit}), so every operation takes the
    monitor's mutex — snapshots are consistent and no event is lost to a
    racing update. *)

type event = {
  features : Cv_linalg.Vec.t;  (** the violating feature vector *)
  overshoot : float;  (** ∞-norm distance outside the current box *)
  index : int;  (** running sample counter at detection time *)
}

type observation =
  | In_distribution
  | Ood of event
  | Rejected
      (** the vector had a non-finite component or the wrong length:
          counted, never recorded — a NaN overshoot would poison κ
          forever, and a length mismatch has no distance to the box *)

type t = {
  lock : Mutex.t;
  mutable box : Cv_interval.Box.t;  (** current monitored bound, [D_in] *)
  mutable seen : int;
  mutable events : event list;  (** most recent first *)
  mutable n_events : int;  (** [List.length events], maintained O(1) *)
  mutable rejected : int;  (** malformed observations discarded *)
}

let m_ood = Cv_util.Metrics.counter "monitor.ood"
let m_rejected = Cv_util.Metrics.counter "monitor.rejected"

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let make box =
  { lock = Mutex.create ();
    box;
    seen = 0;
    events = [];
    n_events = 0;
    rejected = 0 }

(** [of_samples ?buffer features] builds the initial [D_in]: the
    bounding box of the observed feature vectors, enlarged by [buffer]
    (fraction of each axis width; default 0.05 — the paper's
    "additional buffers"). *)
let of_samples ?(buffer = 0.05) features =
  match features with
  | [] -> invalid_arg "Monitor.of_samples: no samples"
  | first :: rest ->
    let box = ref (Cv_interval.Box.point first) in
    List.iter (fun x -> box := Cv_interval.Box.join_point !box x) rest;
    make (Cv_interval.Box.buffer buffer !box)

(** [of_box box] starts monitoring from a given bound. *)
let of_box box = make box

(** [current t] is the monitored box (the verified [D_in]). *)
let current t = with_lock t (fun () -> t.box)

(** [events t] lists recorded out-of-distribution events, oldest
    first. *)
let events t = with_lock t (fun () -> List.rev t.events)

(** [event_count t] is the number of pending OOD events. *)
let event_count t = with_lock t (fun () -> t.n_events)

(** [rejected_count t] is the number of malformed (non-finite or
    wrong-length) observations discarded so far. *)
let rejected_count t = with_lock t (fun () -> t.rejected)

let vec_finite x =
  let ok = ref true in
  Array.iter (fun v -> if not (Float.is_finite v) then ok := false) x;
  !ok

(** [observe_class t x] feeds one feature vector and classifies it.
    Non-finite and wrong-length vectors are rejected (counted, never
    recorded); in-distribution vectors pass; out-of-distribution vectors
    are recorded and returned as an event. The monitored box is {e not}
    changed — enlargement is an explicit engineering step
    ({!enlarged_box}). *)
let observe_class t x =
  with_lock t @@ fun () ->
  t.seen <- t.seen + 1;
  if Array.length x <> Cv_interval.Box.dim t.box || not (vec_finite x)
  then begin
    t.rejected <- t.rejected + 1;
    Cv_util.Metrics.incr m_rejected;
    Rejected
  end
  else if Cv_interval.Box.mem x t.box then In_distribution
  else begin
    let ev =
      { features = Array.copy x;
        overshoot = Cv_interval.Box.dist_point_inf x t.box;
        index = t.seen }
    in
    t.events <- ev :: t.events;
    t.n_events <- t.n_events + 1;
    Cv_util.Metrics.incr m_ood;
    Ood ev
  end

(** [observe t x] is {!observe_class} collapsed to the historical
    interface: [Some ev] for an out-of-distribution vector, [None] for
    in-distribution {e and} rejected ones. *)
let observe t x =
  match observe_class t x with
  | Ood ev -> Some ev
  | In_distribution | Rejected -> None

(** [enlarged_box ?margin t] is [D_in ∪ Δ_in] as a box: the monitored
    box joined with every recorded event point, each padded by [margin]
    (absolute, default 0) so the enlargement is robust to measurement
    noise. *)
let enlarged_box ?(margin = 0.) t =
  with_lock t @@ fun () ->
  List.fold_left
    (fun box ev ->
      Cv_interval.Box.join box
        (Cv_interval.Box.of_center_radius ev.features margin))
    t.box t.events

(** [commit t box] installs an enlarged box (after re-verification
    succeeded) and clears the events it covers — one turn of the paper's
    continuous-engineering loop. Events observed {e after} the enlarged
    box was computed may lie outside it; those stay pending so they can
    trigger the next round instead of being silently discarded. *)
let commit t box =
  with_lock t @@ fun () ->
  if not (Cv_interval.Box.subset t.box box) then
    invalid_arg "Monitor.commit: new box must contain the current one";
  t.box <- box;
  let kept =
    List.filter (fun ev -> not (Cv_interval.Box.mem ev.features box)) t.events
  in
  t.events <- kept;
  t.n_events <- List.length kept

(** [kappa ?norm t] quantifies the pending enlargement: the maximum
    distance from recorded events to the current box (the paper's κ for
    Proposition 3). *)
let kappa ?(norm = `Linf) t =
  with_lock t @@ fun () ->
  let dist =
    match norm with
    | `Linf -> Cv_interval.Box.dist_point_inf
    | `L2 -> Cv_interval.Box.dist_point_l2
  in
  List.fold_left (fun acc ev -> Float.max acc (dist ev.features t.box)) 0. t.events

(** [monitored_layer_features net ~layer x] extracts the feature vector
    the monitor watches: the output of layer [layer] (0-based) of [net]
    at input [x] — the paper monitors the "Flatten" layer output. *)
let monitored_layer_features net ~layer x =
  let trace = Cv_nn.Network.eval_trace net x in
  trace.(layer)
