(** Durable run checkpoints: a command-specific progress payload paired
    with the run kind, the network fingerprint and a property scope,
    inside the checksummed atomic artifact envelope. Load validates all
    of them through typed errors, so a checkpoint never silently resumes
    the wrong run, the wrong network, or the wrong property. *)

(** [Verify]: the exact search of [verify --exact] and batch
    [verify-exact] jobs. [Serve]: the loop state of [contiver serve]. *)
type kind = Verify | Serve

(** [kind_name k] is the printable command name. *)
val kind_name : kind -> string

type resume_error =
  | Corrupt_checkpoint of string
      (** unreadable file, malformed JSON, checksum mismatch, or schema
          violation *)
  | Checkpoint_mismatch of string
      (** a valid checkpoint for a different command or network *)

(** [resume_error_message e] renders a one-line diagnosis. *)
val resume_error_message : resume_error -> string

(** [property_scope ?old_fingerprint ~din ~dout ()] is an opaque digest
    of what is being verified — the input/output domains and, for
    differential (svbtv) runs, the reference network's fingerprint —
    for use as the [scope] of {!save}/{!load}. *)
val property_scope :
  ?old_fingerprint:string ->
  din:Cv_interval.Box.t ->
  dout:Cv_interval.Box.t ->
  unit ->
  string

(** [save ?scope ~path ~kind ~fingerprint payload] writes a checkpoint
    atomically and durably, recording the property scope when given. *)
val save :
  ?scope:string ->
  path:string -> kind:kind -> fingerprint:string -> Cv_util.Json.t -> unit

(** [load ~path ~kind ~fingerprint ~scope] reads a checkpoint back,
    validating checksum, run kind, network fingerprint and — when
    [~scope] is [Some _] — the property scope (refusing files recorded
    without one); returns the progress payload. *)
val load :
  path:string ->
  kind:kind ->
  fingerprint:string ->
  scope:string option ->
  (Cv_util.Json.t, resume_error) result
