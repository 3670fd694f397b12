(** The one atomic durable writer of the artifact store. Every durable
    document — proof bundles, run checkpoints, cache entries — goes
    through {!write}, so the unique-tmp / fsync / rename discipline (and
    its fault-injection points) lives in exactly one place. *)

(** [write path contents] writes [contents] to [path] atomically and
    durably: the bytes go to a temporary file {e unique to this process
    and call} in the same directory, are fsynced, and only then renamed
    over [path]. A crash mid-write never leaves a half-written document
    under the real name, and two concurrent writers never clobber each
    other's tmp file.

    Fault points polled per call: [Truncate_artifact] (the document is
    cut in half before writing — a stand-in for a non-atomic writer or a
    disk fault, caught later by the envelope checksum) and
    [Kill_mid_checkpoint] (the process "dies" after half the tmp bytes:
    the tmp file is abandoned and {!Cv_util.Fault.Killed} is raised;
    the target path stays intact). *)
val write : string -> string -> unit
