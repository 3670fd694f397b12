(** A continuous-verification session: the one state machine that
    commits a monitored box, installs a network or refreshes a proof
    artifact. It owns the certified network, its artifact and the
    runtime monitor, and exposes the paper's continuous-engineering
    events as transitions:

    - {!observe}: classify a monitored feature vector; OOD vectors stay
      pending;
    - {!absorb_enlargement} (SVuDC) and {!adopt} (SVbTV): verify over
      the monitor's enlarged box [D_in ∪ Δ_in] as a one-job
      {!Batch.run} under the session's {!Batch.config} (deadline,
      supervision, done-file replay, cache), with job id
      [round-%04d-svudc] / [round-%04d-svbtv];
    - {!retarget} (SVuSC): a direct {!Specchange.solve}.

    Only a [Safe] verdict commits, and it commits the box, the network
    and the refreshed artifact together; any other verdict leaves the
    session unchanged, so the deployed system only ever runs
    configurations whose proof is current. The committed box is always
    the artifact's [D_in]. [contiver serve] ([Cv_serve.Serve]) runs its
    loop on top of this module. *)

type event =
  | Certified of string  (** session opened (solver name) *)
  | Domain_enlarged of Batch.job_result
  | Domain_rejected of Batch.job_result
  | Version_adopted of Batch.job_result
  | Version_rejected of Batch.job_result
  | Spec_changed of Batch.job_result
  | Spec_rejected of Batch.job_result
  | Budget_exhausted of Batch.job_result
      (** a transition ran out of verification budget; the session is
          unchanged and the old certificate keeps standing *)

type t

(** Durable state: the SVuDC/SVbTV round count, the pending OOD
    feature vectors and the artifact, whose [D_in] is the committed
    box. *)
type saved = {
  round : int;
  pending : Cv_linalg.Vec.t list;  (** oldest first *)
  artifact : Cv_artifacts.Artifacts.t;
}

(** [certify ?deadline ?config ?widen net prop] runs the original
    (exact) verification and opens a session; [Error] with the failure
    report when the property does not hold or the budget expires.
    [config] (default {!Batch.default_config}) runs every later
    transition; [widen] (default 0.03) is the abstraction slack of
    refreshed artifacts. *)
val certify :
  ?deadline:Cv_util.Deadline.t ->
  ?config:Batch.config ->
  ?widen:float ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  (t, Cv_verify.Verifier.report) result

(** [restore ?config ?widen net saved] reopens a session from its
    durable state without re-verifying; raises [Invalid_argument] when
    the artifact does not match the network. *)
val restore :
  ?config:Batch.config -> ?widen:float -> Cv_nn.Network.t -> saved -> t

(** [resume ?config ?widen net artifact] opens a session from a proof
    artifact: {!restore} at round 0 with nothing pending. *)
val resume :
  ?config:Batch.config ->
  ?widen:float ->
  Cv_nn.Network.t ->
  Cv_artifacts.Artifacts.t ->
  t

(** Typed failure of {!resume_file}. *)
type resume_error =
  | Corrupt_artifact of string
      (** the file is unreadable, truncated, fails its checksum, or
          violates the artifact schema *)
  | Artifact_mismatch of string
      (** the artifact was produced for a different network *)

(** [resume_error_message e] renders a one-line diagnosis. *)
val resume_error_message : resume_error -> string

(** [resume_file ?config ?widen net path] opens a session from an
    artifact file, returning a typed error — never an exception — when
    the file is corrupt or was produced for a different network. *)
val resume_file :
  ?config:Batch.config ->
  ?widen:float ->
  Cv_nn.Network.t ->
  string ->
  (t, resume_error) result

(** [save s] is the session's durable state. *)
val save : t -> saved

(** [saved_to_json v] / [saved_of_json j] encode the durable state;
    [saved_of_json] raises {!Cv_util.Json.Error} on malformed input. *)
val saved_to_json : saved -> Cv_util.Json.t

val saved_of_json : Cv_util.Json.t -> saved

(** [network s] is the currently certified network. *)
val network : t -> Cv_nn.Network.t

(** [artifact s] is the current proof artifact. *)
val artifact : t -> Cv_artifacts.Artifacts.t

(** [property s] is the currently certified property. *)
val property : t -> Cv_verify.Property.t

(** [box s] is the committed monitored box (the artifact's [D_in]). *)
val box : t -> Cv_interval.Box.t

(** [rounds s] counts the SVuDC/SVbTV rounds run so far, restored
    state included. *)
val rounds : t -> int

(** [history s] lists transitions, oldest first. *)
val history : t -> event list

(** [pending_ood s] is the number of OOD events awaiting
    {!absorb_enlargement}. *)
val pending_ood : t -> int

(** [kappa s] is the monitor's κ: the largest distance from a pending
    event to the committed box. *)
val kappa : t -> float

(** [observe s features] feeds one monitored feature vector and returns
    the monitor's classification; only [Ood] vectors stay pending. *)
val observe : t -> Cv_linalg.Vec.t -> Cv_monitor.Monitor.observation

(** [absorb_enlargement ?deadline ?margin s] runs the SVuDC round over
    the enlarged box (events padded by [margin], default 0.005). On
    [Safe] the box is committed, the artifact refreshed and the covered
    events cleared. A [deadline] becomes the round job's timeout. *)
val absorb_enlargement :
  ?deadline:Cv_util.Deadline.t -> ?margin:float -> t -> Batch.job_result

(** [adopt ?deadline ?margin s candidate] runs the SVbTV round for a
    fine-tuned candidate over the enlarged box (the committed box when
    nothing is pending). On [Safe] the candidate and the box commit
    together and the artifact is refreshed for them. *)
val adopt :
  ?deadline:Cv_util.Deadline.t ->
  ?margin:float ->
  t ->
  Cv_nn.Network.t ->
  Batch.job_result

(** [retarget ?deadline s new_dout] solves the SVuSC instance for an
    evolved specification; on [Safe] the artifact is refreshed for the
    new [D_out]. *)
val retarget :
  ?deadline:Cv_util.Deadline.t -> t -> Cv_interval.Box.t -> Batch.job_result

(** [event_string e] is a one-line audit entry. *)
val event_string : event -> string
