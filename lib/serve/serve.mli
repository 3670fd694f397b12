(** The continuous-verification service: the paper's
    monitor→Δ_in→SVuDC / fine-tune→SVbTV engineering loop as a
    long-running, event-driven daemon, driving one
    {!Cv_core.Session}.

    The session is the state machine: it classifies observations, runs
    every round as a one-job {!Cv_core.Batch} run (per-round deadline,
    supervision, done-file replay, {!Cv_artifacts.Cache} reuse), and
    commits the enlarged box — with a fine-tuned network, for SVbTV —
    and the refreshed artifact {e only} on a proved verdict. This module
    keeps what is specific to a daemon: one single-threaded loop polls
    the {!Source}, pushes observations through a bounded {!Event_queue}
    (drop-oldest backpressure, every drop counted), drains them into the
    session, and debounces pending OOD events — by count, by κ
    threshold, and by a quiet period — into SVuDC rounds. A watched
    network file whose content fingerprint changes triggers an SVbTV
    round against the fine-tuned network.

    Durability: the loop state (counters, consumed-frame count, debounce
    gate) and the session's durable state (round count, pending events,
    artifact — whose [D_in] is the committed box) are checkpointed
    together under [checkpoint_dir] as one {!Cv_core.Runstate} document
    of kind [Serve]. Each round is a batch job with its own done-file —
    a killed daemon restarted with the saved state re-derives the
    interrupted round and replays it from its done-file instead of
    re-verifying, reaching the identical verdict.

    Observability: [serve.*] metrics counters, a periodic one-line JSON
    status record ([contiver-serve-status-v1]) through [status], and a
    final flushed record on shutdown ([should_stop], e.g. SIGTERM). *)

type round_kind = Svudc | Svbtv

val round_kind_name : round_kind -> string

type round = {
  number : int;  (** 1-based, monotonic across resumes *)
  kind : round_kind;
  verdict : Cv_core.Batch.verdict;
  committed : bool;  (** verdict was [Safe]: the box was enlarged *)
  seconds : float;
  resumed : bool;  (** replayed from a done-file or checkpoint *)
  trigger_events : int;  (** pending OOD events when the round fired *)
  kappa : float;  (** κ when the round fired *)
}

type stop_reason =
  | Eof  (** the source ended and pending events were flushed *)
  | Rounds_limit  (** [max_rounds] reached *)
  | Stopped  (** [should_stop] fired (signal) *)

val stop_reason_name : stop_reason -> string

(** Loop state restored from a checkpoint (see {!load_state}). *)
type persisted = {
  p_commits : int;
  p_seen : int;
  p_ood : int;
  p_dropped : int;
  p_rejected : int;
  p_consumed : int;  (** source frames consumed; feed to [Stream.skip] *)
  p_failed_at : int option;  (** debounce gate after a failed round *)
  p_session : Cv_core.Session.saved;
      (** round count, pending events and artifact (committed box) *)
}

type config = {
  margin : float;  (** event padding for the enlarged box *)
  trigger_events : int;  (** fire a round at this many pending events *)
  trigger_kappa : float;  (** ... or when κ reaches this (infinity = off) *)
  quiet_events : int;
      (** debounce: require this many consecutive in-distribution
          observations since the last OOD before firing (waived when the
          source is idle or ended — nothing newer is coming) *)
  queue_capacity : int;  (** bounded ingestion queue *)
  max_rounds : int option;  (** stop after this many rounds *)
  widen : float;  (** abstraction slack when refreshing the artifact *)
  strategy : Cv_core.Strategy.config;
  round_timeout : float option;  (** per-round deadline, seconds *)
  checkpoint_dir : string option;
      (** loop state ([serve.state.json]) + per-round batch files *)
  checkpoint_every : float;
  resume : persisted option;  (** state from {!load_state} *)
  cache : Cv_artifacts.Cache.t option;
  status_every : float;  (** seconds between periodic status records *)
  watch : string option;  (** network file to watch for fine-tuning *)
  artifact_out : string option;  (** persist the refreshed artifact *)
  status : Cv_util.Json.t -> unit;  (** status-record sink *)
  on_round : round -> unit;  (** called after every round *)
  should_stop : unit -> bool;  (** polled once per loop tick *)
}

(** Conservative defaults: trigger at 3 events, κ trigger off, no
    deadline, no cache, no checkpointing, silent sinks. *)
val default_config : config

(** Final report of one service run. [rounds] lists only the rounds
    executed by this process (oldest first); the counters include
    restored state. *)
type t = {
  rounds : round list;
  round_count : int;
  commits : int;
  seen : int;
  ood : int;
  dropped : int;
  rejected : int;
  pending : int;
  consumed : int;
  box : Cv_interval.Box.t;
  stop : stop_reason;
  net : Cv_nn.Network.t;  (** current network (possibly fine-tuned) *)
  artifact : Cv_artifacts.Artifacts.t;  (** artifact for [box] and [net] *)
  cache_stats : Cv_artifacts.Cache.stats option;
}

(** [state_path ~dir] is where the loop state lives under a checkpoint
    directory. *)
val state_path : dir:string -> string

(** [load_state ~dir ~fingerprint] reads the loop state back, validating
    envelope, kind and network fingerprint; [Ok None] when no state file
    exists yet, [Error (Corrupt_checkpoint _)] for a file that does not
    hold this layout (including one written before the session state
    moved into it). *)
val load_state :
  dir:string ->
  fingerprint:string ->
  (persisted option, Cv_core.Runstate.resume_error) result

(** [run ?config ~net ~artifact ~source ()] runs the service loop until
    the source ends, [max_rounds] is reached, or [should_stop] fires.
    [artifact] must be a proof of the property for [net]; the monitored
    box starts at its [D_in]. With [config.resume] the session is
    restored from the saved state instead, and [artifact] is unused. *)
val run :
  ?config:config ->
  net:Cv_nn.Network.t ->
  artifact:Cv_artifacts.Artifacts.t ->
  source:Source.t ->
  unit ->
  t
