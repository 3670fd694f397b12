(** Proof artifacts: what a completed verification leaves behind for
    reuse — state abstractions [S_1..S_n], Lipschitz constants, and
    provenance metadata — with JSON persistence. *)

type t = {
  property : Cv_verify.Property.t;  (** the proved property *)
  state_abstractions : Cv_interval.Box.t array option;
      (** [S_1..S_n], inductive per-layer boxes with [S_n ⊆ D_out] *)
  lipschitz : (string * float) list;
      (** named Lipschitz constants, e.g. [("Linf", ℓ)] *)
  split_cert : Cv_verify.Split_cert.t option;
      (** bisection-tree certificate of a splitting (ReluVal-style)
          proof, revalidatable for fine-tuned networks *)
  network_fingerprint : string;  (** hash of the proved network *)
  solver : string;  (** engine that established the proof *)
  solve_seconds : float;  (** original verification cost *)
}

(** [fingerprint net] is a stable hash of a network's architecture and
    parameters (weights, biases and leaky-ReLU slopes by their exact
    bits), used to detect artifact/network mismatches. It is computed
    once per network value and memoized, as networks are immutable
    after [Network.make]. The value carries a hashing-scheme version
    prefix (currently [v2:]), so a scheme change invalidates stored
    artifacts as an explicit version break rather than apparent network
    drift. The exception is the leaky-ReLU tag, changed inside [v2:]
    from the slope's [%g] rendering to its exact bits: a leaky
    network's older artifacts and checkpoints are refused as belonging
    to a different network and must be regenerated. *)
val fingerprint : Cv_nn.Network.t -> string

(** [make ?state_abstractions ?lipschitz ~property ~net ~solver
    ~solve_seconds ()] builds an artifact bundle. *)
val make :
  ?state_abstractions:Cv_interval.Box.t array ->
  ?lipschitz:(string * float) list ->
  ?split_cert:Cv_verify.Split_cert.t ->
  property:Cv_verify.Property.t ->
  net:Cv_nn.Network.t ->
  solver:string ->
  solve_seconds:float ->
  unit ->
  t

(** [matches t net] is true when the artifact was produced for exactly
    this network. *)
val matches : t -> Cv_nn.Network.t -> bool

(** [lipschitz_for t norm] looks up a stored constant by norm name. *)
val lipschitz_for : t -> string -> float option

(** [with_lipschitz t norm value] records one more constant. *)
val with_lipschitz : t -> string -> float -> t

(** [final_abstraction t] is [S_n] when state abstractions are
    present. *)
val final_abstraction : t -> Cv_interval.Box.t option

(** [to_json t] / [of_json j] encode the bundle; [of_json] raises
    {!Cv_util.Json.Error} on malformed documents. *)
val to_json : t -> Cv_util.Json.t

val of_json : Cv_util.Json.t -> t

(** [save_doc ~format path payload] writes any JSON payload inside the
    checksummed envelope (format version 2), atomically and durably:
    unique per-process/per-call temp file, fsync, then rename — a crash
    mid-write never leaves a half-written document under the real name,
    and concurrent writers to one path never clobber each other. Used
    for proof artifacts and search checkpoints alike. *)
val save_doc : format:string -> string -> Cv_util.Json.t -> unit

(** [save path t] writes the bundle via {!save_doc}. *)
val save : string -> t -> unit

(** Typed failure of {!load_result}. *)
type load_error =
  | File_error of string  (** the file cannot be opened or read *)
  | Corrupt of string
      (** malformed JSON, checksum mismatch, or schema violation *)

(** [load_error_message e] renders a one-line diagnosis. *)
val load_error_message : load_error -> string

(** [load_doc_result ~format path] reads a document written by
    {!save_doc}, validating version, declared format, and checksum, and
    returns the payload; bare (version-1) documents come back whole
    without integrity checking. *)
val load_doc_result :
  format:string -> string -> (Cv_util.Json.t, load_error) result

(** [load_result path] reads a bundle written by {!save}: the envelope
    checksum is validated, and all failures come back as typed errors
    instead of exceptions. Bare version-1 documents are accepted without
    integrity checking. *)
val load_result : string -> (t, load_error) result

(** [load path] reads a bundle, raising on any failure ([Sys_error] or
    {!Cv_util.Json.Error}) — prefer {!load_result}. *)
val load : string -> t
