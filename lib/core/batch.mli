(** Multi-query verification scheduler: run a manifest of (network,
    property, mode) jobs concurrently on a bounded domain pool, backed
    by the content-addressed proof-artifact cache.

    Scheduling is fair FIFO: workers claim jobs in manifest order as
    slots free up, and each job's optional deadline starts when the job
    is admitted. Jobs are isolated — a crashed job (beyond supervised
    retries) degrades to a [Crashed] verdict without poisoning its
    siblings — and route through the existing machinery:
    {!Strategy.run_until_decisive} for plain verify jobs,
    {!Strategy.solve_original_exact} for exact ones,
    {!Strategy.solve_svudc} / {!Strategy.solve_svbtv} for the
    incremental modes, inheriting attempt-granular (or search-granular)
    checkpoint/resume per job.

    Artifact reuse: state-abstraction chains and Lipschitz constants go
    through {!Cv_artifacts.Cache} (content-addressed, single-flight), so
    N queries against one network pay for one build; SVbTV network
    abstractions (not JSON-serialisable) go through the cache's
    in-memory tier under the same keying discipline and statistics.
    Cache hits skip the rebuild entirely.

    Verdicts are a deterministic function of the manifest alone: they do
    not depend on the concurrency level, the job order, or cache
    hits/misses (cached artifacts round-trip exactly). *)

(** What one job verifies. Problem validation (artifact/network
    fingerprint, domain containment) happens when the job {e runs}, so a
    malformed job crashes alone instead of taking the batch down. *)
type spec =
  | Verify of {
      net : Cv_nn.Network.t;
      prop : Cv_verify.Property.t;
      exact : bool;  (** sound-and-complete exact solve instead of
                         abstract-with-fallback *)
      artifact_out : string option;
          (** where to write proof artifacts when the property is
              proved *)
    }
  | Svudc of {
      net : Cv_nn.Network.t;
      artifact : Cv_artifacts.Artifacts.t;
      new_din : Cv_interval.Box.t;
    }
  | Svbtv of {
      old_net : Cv_nn.Network.t;
      new_net : Cv_nn.Network.t;
      artifact : Cv_artifacts.Artifacts.t;
      new_din : Cv_interval.Box.t;
    }

type job = {
  id : string;  (** unique, non-empty; names checkpoint files *)
  spec : spec;
  timeout : float option;  (** per-job deadline override, seconds *)
}

type config = {
  jobs : int;  (** worker domains; 1 = sequential *)
  job_timeout : float option;  (** default per-job deadline, seconds *)
  strategy : Strategy.config;
  cache : Cv_artifacts.Cache.t option;  (** [None] disables reuse *)
  checkpoint_dir : string option;
      (** per-job search checkpoints ([<id>.ck.json]) and completed-job
          results ([<id>.done.json]); an existing valid done-file lets a
          re-run skip the job, an existing checkpoint resumes it. Both
          are bound to the job's network fingerprint, mode and property
          — a file recorded for a different verification question
          (e.g. a retrained network under a reused directory) is
          ignored and the job runs fresh *)
  checkpoint_every : float;  (** checkpoint cadence, seconds *)
}

(** Sequential, no deadline, no cache, no checkpointing, default
    strategy. *)
val default_config : config

type verdict = Safe | Unsafe | Inconclusive | Exhausted | Crashed

val verdict_name : verdict -> string

type job_result = {
  job_id : string;
  mode : string;  (** "verify" | "verify-exact" | "svudc" | "svbtv" *)
  verdict : verdict;
  decisive : string option;  (** attempt that settled it *)
  attempts : int;
  seconds : float;
  resumed : bool;  (** replayed from a done-file or checkpoint *)
  detail : string;
}

type t = {
  results : job_result list;  (** manifest order *)
  wall_seconds : float;
  cache_stats : Cv_artifacts.Cache.stats option;
      (** {!Cv_artifacts.Cache.stats} of the configured cache after the
          run; [None] when the cache is disabled *)
}

(** [run ?config jobs] schedules and runs the whole manifest. Raises
    [Invalid_argument] on duplicate or empty job ids, or on distinct
    ids that collide after filename sanitisation (a manifest authoring
    error, not a job failure). *)
val run : ?config:config -> job list -> t

(** [result_of_report ~id ~mode r] is the result row of a job settled
    by [r] outside the scheduler (not resumed; seconds from [r]). *)
val result_of_report : id:string -> mode:string -> Report.t -> job_result

(** [report_to_json t] is the consolidated batch report
    ([contiver-batch-report-v1]) with a stable field order: schema,
    jobs, summary, cache, wall_seconds. *)
val report_to_json : t -> Cv_util.Json.t

(** [job_result_to_json r] / [job_result_of_json j] encode one job's
    result row (stable field order: id, mode, verdict, decisive,
    attempts, seconds, resumed, detail) — also the [result] member of
    the done-file payload (alongside the job's fingerprint and
    property scope).
    [job_result_of_json] raises {!Cv_util.Json.Error} on malformed
    input. *)
val job_result_to_json : job_result -> Cv_util.Json.t

val job_result_of_json : Cv_util.Json.t -> job_result
