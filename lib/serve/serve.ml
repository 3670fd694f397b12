(** The continuous-verification service loop (see the interface). *)

module Json = Cv_util.Json
module Metrics = Cv_util.Metrics
module Checkpoint = Cv_util.Checkpoint
module Box = Cv_interval.Box
module Monitor = Cv_monitor.Monitor
module Artifacts = Cv_artifacts.Artifacts
module Cache = Cv_artifacts.Cache
module Batch = Cv_core.Batch
module Session = Cv_core.Session
module Strategy = Cv_core.Strategy
module Runstate = Cv_core.Runstate

let src = Logs.Src.create "cv.serve.loop" ~doc:"Continuous verification loop"

module Log = (val Logs.src_log src : Logs.LOG)

let m_rounds = Metrics.counter "serve.rounds"
let m_commits = Metrics.counter "serve.commits"
let m_seen = Metrics.counter "serve.events.seen"
let m_ood = Metrics.counter "serve.events.ood"
let m_dropped = Metrics.counter "serve.events.dropped"
let m_rejected = Metrics.counter "serve.events.rejected"

type round_kind = Svudc | Svbtv

let round_kind_name = function Svudc -> "svudc" | Svbtv -> "svbtv"

type round = {
  number : int;
  kind : round_kind;
  verdict : Batch.verdict;
  committed : bool;
  seconds : float;
  resumed : bool;
  trigger_events : int;
  kappa : float;
}

type stop_reason = Eof | Rounds_limit | Stopped

let stop_reason_name = function
  | Eof -> "eof"
  | Rounds_limit -> "rounds-limit"
  | Stopped -> "signal"

type persisted = {
  p_commits : int;
  p_seen : int;
  p_ood : int;
  p_dropped : int;
  p_rejected : int;
  p_consumed : int;
  p_failed_at : int option;
  p_session : Session.saved;
}

type config = {
  margin : float;
  trigger_events : int;
  trigger_kappa : float;
  quiet_events : int;
  queue_capacity : int;
  max_rounds : int option;
  widen : float;
  strategy : Strategy.config;
  round_timeout : float option;
  checkpoint_dir : string option;
  checkpoint_every : float;
  resume : persisted option;
  cache : Cache.t option;
  status_every : float;
  watch : string option;
  artifact_out : string option;
  status : Json.t -> unit;
  on_round : round -> unit;
  should_stop : unit -> bool;
}

let default_config =
  { margin = 0.005;
    trigger_events = 3;
    trigger_kappa = infinity;
    quiet_events = 0;
    queue_capacity = 1024;
    max_rounds = None;
    widen = 0.04;
    strategy = Strategy.default_config;
    round_timeout = None;
    checkpoint_dir = None;
    checkpoint_every = 5.;
    resume = None;
    cache = None;
    status_every = 10.;
    watch = None;
    artifact_out = None;
    status = ignore;
    on_round = ignore;
    should_stop = (fun () -> false) }

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
  box : Box.t;
  stop : stop_reason;
  net : Cv_nn.Network.t;
  artifact : Artifacts.t;
  cache_stats : Cache.stats option;
}

(* ------------------------------------------------------------------ *)
(* Loop-state persistence                                              *)

let state_path ~dir = Filename.concat dir "serve.state.json"

let persisted_to_json p =
  Json.Obj
    [ ("commits", Json.of_int p.p_commits);
      ("seen", Json.of_int p.p_seen);
      ("ood", Json.of_int p.p_ood);
      ("dropped", Json.of_int p.p_dropped);
      ("rejected", Json.of_int p.p_rejected);
      ("consumed", Json.of_int p.p_consumed);
      ( "failed_at",
        match p.p_failed_at with
        | None -> Json.Null
        | Some n -> Json.of_int n );
      ("session", Session.saved_to_json p.p_session) ]

let persisted_of_json j =
  { p_commits = Json.to_int (Json.member "commits" j);
    p_seen = Json.to_int (Json.member "seen" j);
    p_ood = Json.to_int (Json.member "ood" j);
    p_dropped = Json.to_int (Json.member "dropped" j);
    p_rejected = Json.to_int (Json.member "rejected" j);
    p_consumed = Json.to_int (Json.member "consumed" j);
    p_failed_at =
      (match Json.member "failed_at" j with
      | Json.Null -> None
      | v -> Some (Json.to_int v));
    p_session = Session.saved_of_json (Json.member "session" j) }

let load_state ~dir ~fingerprint =
  let path = state_path ~dir in
  if not (Sys.file_exists path) then Ok None
  else
    match Runstate.load ~path ~kind:Runstate.Serve ~fingerprint ~scope:None with
    | Error e -> Error e
    | Ok payload -> (
      match persisted_of_json payload with
      | p -> Ok (Some p)
      | exception Json.Error msg ->
        Error (Runstate.Corrupt_checkpoint (path ^ ": " ^ msg)))

(* ------------------------------------------------------------------ *)
(* The service loop                                                    *)

let run ?(config = default_config) ~net ~artifact ~source () =
  Option.iter
    (fun dir ->
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    config.checkpoint_dir;
  (* Every round is a one-job batch under this configuration: per-round
     deadline, supervision, done-file replay and the shared cache. *)
  let batch =
    { Batch.default_config with
      strategy = config.strategy;
      job_timeout = config.round_timeout;
      cache = config.cache;
      checkpoint_dir = config.checkpoint_dir;
      checkpoint_every = config.checkpoint_every }
  in
  let session, base =
    match config.resume with
    | Some p ->
      (Session.restore ~config:batch ~widen:config.widen net p.p_session, p)
    | None ->
      let s = Session.resume ~config:batch ~widen:config.widen net artifact in
      ( s,
        { p_commits = 0;
          p_seen = 0;
          p_ood = 0;
          p_dropped = 0;
          p_rejected = 0;
          p_consumed = 0;
          p_failed_at = None;
          p_session = Session.save s } )
  in
  (* Counters carry over from a restored state; queue drops are tracked
     by the queue itself on top of the restored base. *)
  let commits = ref base.p_commits in
  let seen = ref base.p_seen in
  let ood = ref base.p_ood in
  let rejected = ref base.p_rejected in
  let consumed = ref base.p_consumed in
  let failed_at = ref base.p_failed_at in
  let queue = Event_queue.create ~capacity:config.queue_capacity () in
  let dropped () = base.p_dropped + Event_queue.dropped queue in
  let quiet_run = ref 0 in
  let eof = ref false in
  let idle = ref false in
  let stop = ref None in
  let rounds = ref [] in
  let stats () = Option.map Cache.stats config.cache in
  let status_json ~final () =
    Json.Obj
      ([ ("schema", Json.Str "contiver-serve-status-v1");
         ("rounds", Json.of_int (Session.rounds session));
         ("commits", Json.of_int !commits);
         ( "events",
           Json.Obj
             [ ("seen", Json.of_int !seen);
               ("ood", Json.of_int !ood);
               ("pending", Json.of_int (Session.pending_ood session));
               ("dropped", Json.of_int (dropped ()));
               ("rejected", Json.of_int !rejected) ] );
         ("kappa", Json.Num (Session.kappa session));
         ("box_width", Json.Num (Box.total_width (Session.box session)));
         ( "cache",
           match stats () with
           | None -> Json.Null
           | Some s -> Cache.stats_to_json s );
         ("final", Json.Bool final) ]
      @
      match !stop with
      | None -> []
      | Some reason -> [ ("stop", Json.Str (stop_reason_name reason)) ])
  in
  let status_sink = Checkpoint.create ~every:config.status_every config.status in
  let state_json () =
    persisted_to_json
      { p_commits = !commits;
        p_seen = !seen;
        p_ood = !ood;
        p_dropped = dropped ();
        p_rejected = !rejected;
        p_consumed = !consumed;
        p_failed_at = !failed_at;
        p_session = Session.save session }
  in
  let state_sink =
    Option.map
      (fun dir ->
        Checkpoint.create ~every:config.checkpoint_every (fun payload ->
            Runstate.save
              ~path:(state_path ~dir)
              ~kind:Runstate.Serve
              ~fingerprint:(Artifacts.fingerprint (Session.network session))
              payload))
      config.checkpoint_dir
  in
  let run_round kind transition =
    let trigger_events = Session.pending_ood session in
    let kappa = Session.kappa session in
    (* Persist the exact pre-round state: a daemon killed mid-round
       resumes here and the session re-derives the identical round (same
       job id, same enlarged box), so the round's done-file replays. *)
    Checkpoint.save_opt state_sink state_json;
    Log.info (fun m ->
        m "round %d (%s): %d pending events, kappa %.4f"
          (Session.rounds session + 1)
          (round_kind_name kind) trigger_events kappa);
    let result = transition () in
    Metrics.incr m_rounds;
    let committed = result.Batch.verdict = Batch.Safe in
    if committed then begin
      incr commits;
      Metrics.incr m_commits;
      failed_at := None;
      Option.iter
        (fun path -> Artifacts.save path (Session.artifact session))
        config.artifact_out
    end
    else
      (* Debounce gate: don't re-fire until new evidence arrives. *)
      failed_at := Some trigger_events;
    let round =
      { number = Session.rounds session;
        kind;
        verdict = result.Batch.verdict;
        committed;
        seconds = result.Batch.seconds;
        resumed = result.Batch.resumed;
        trigger_events;
        kappa }
    in
    rounds := round :: !rounds;
    Log.info (fun m ->
        m "%s: %s%s%s" result.Batch.job_id
          (Batch.verdict_name result.Batch.verdict)
          (if committed then ", committed" else "")
          (if result.Batch.resumed then " (resumed)" else ""));
    config.on_round round;
    Checkpoint.save_opt state_sink state_json;
    Checkpoint.save status_sink (status_json ~final:false)
  in
  let watch_mtime =
    ref
      (match config.watch with
      | None -> neg_infinity
      | Some path -> (
        try (Unix.stat path).Unix.st_mtime with Unix.Unix_error _ -> neg_infinity))
  in
  (* A touched watch file whose content fingerprint actually changed is
     a fine-tuned network: run SVbTV against it. *)
  let check_watch () =
    match config.watch with
    | None -> ()
    | Some path ->
      let mtime =
        try (Unix.stat path).Unix.st_mtime
        with Unix.Unix_error _ -> !watch_mtime
      in
      if mtime <> !watch_mtime then begin
        watch_mtime := mtime;
        match Cv_nn.Serialize.load_network_result path with
        | Error e ->
          Log.warn (fun m ->
              m "watch %s: cannot reload network: %s" path
                (Cv_nn.Serialize.load_error_message e))
        | Ok reloaded ->
          if
            not
              (String.equal
                 (Artifacts.fingerprint reloaded)
                 (Artifacts.fingerprint (Session.network session)))
          then
            run_round Svbtv (fun () ->
                Session.adopt ~margin:config.margin session reloaded)
      end
  in
  let drain () =
    let rec go () =
      match Event_queue.pop queue with
      | None -> ()
      | Some feats ->
        incr seen;
        Metrics.incr m_seen;
        (match Session.observe session feats with
        | Monitor.In_distribution -> incr quiet_run
        | Monitor.Ood _ ->
          incr ood;
          Metrics.incr m_ood;
          quiet_run := 0
        | Monitor.Rejected ->
          incr rejected;
          Metrics.incr m_rejected);
        go ()
    in
    go ()
  in
  let pull () =
    if not !eof then
      match source () with
      | Source.Eof ->
        eof := true;
        idle := true
      | Source.Idle -> idle := true
      | Source.Burst items ->
        idle := false;
        List.iter
          (fun feats ->
            incr consumed;
            match Event_queue.push queue feats with
            | Some _lost -> Metrics.incr m_dropped
            | None -> ())
          items
  in
  while !stop = None do
    drain ();
    check_watch ();
    let ran_round =
      let pending = Session.pending_ood session in
      let fresh =
        match !failed_at with None -> pending > 0 | Some n -> pending > n
      in
      let loud =
        pending >= config.trigger_events
        || Session.kappa session >= config.trigger_kappa
        || (!eof && pending > 0)
      in
      let settled = !quiet_run >= config.quiet_events || !idle in
      if fresh && loud && settled then begin
        run_round Svudc (fun () ->
            Session.absorb_enlargement ~margin:config.margin session);
        true
      end
      else false
    in
    if config.should_stop () then stop := Some Stopped
    else if
      match config.max_rounds with
      | Some n -> Session.rounds session >= n
      | None -> false
    then stop := Some Rounds_limit
    else if !eof && (not ran_round) && Event_queue.length queue = 0 then
      stop := Some Eof
    else begin
      (* Tick before pulling: the queue is empty here (drained at the
         top of the iteration), so a state snapshot never counts frames
         as consumed that the monitor has not observed yet. *)
      Checkpoint.tick_opt state_sink state_json;
      Checkpoint.tick status_sink (status_json ~final:false);
      pull ()
    end
  done;
  Checkpoint.save_opt state_sink state_json;
  Checkpoint.save status_sink (status_json ~final:true);
  { rounds = List.rev !rounds;
    round_count = Session.rounds session;
    commits = !commits;
    seen = !seen;
    ood = !ood;
    dropped = dropped ();
    rejected = !rejected;
    pending = Session.pending_ood session;
    consumed = !consumed;
    box = Session.box session;
    stop = (match !stop with Some r -> r | None -> Eof);
    net = Session.network session;
    artifact = Session.artifact session;
    cache_stats = stats () }
