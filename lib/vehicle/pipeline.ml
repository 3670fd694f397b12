(** The end-to-end experiment generator (paper §V).

    Reproduces the paper's workflow on the synthetic platform:
    + build the perception stack (frozen extractor + head) and train the
      head on nominal-condition data collected along the track;
    + record the monitored "Flatten" feature bounds over the training
      set (plus buffer) — this is [D_in];
    + choose [D_out] as the widened inductive abstraction reach of the
      trained head over [D_in] — the property the original verification
      certifies;
    + drive the car under {e shifted} conditions; monitor flags
      out-of-distribution features, whose join with [D_in] forms
      [D_in ∪ Δ_in] for SVuDC;
    + fine-tune the head four times (small learning rate, fresh
      mixed-condition data each round) — networks 2..5 of Table I, all
      sharing the same input domain because the extractor is frozen. *)

type experiment = {
  track : Track.t;
  perception : Perception.t;  (** with the originally trained head *)
  heads : Cv_nn.Network.t array;  (** 5 heads: index 0 original, 1-4 fine-tuned *)
  din : Cv_interval.Box.t;  (** initial monitored feature bounds *)
  enlarged_din : Cv_interval.Box.t;  (** D_in ∪ Δ_in after shifted driving *)
  dout : Cv_interval.Box.t;  (** the certified output property *)
  ood_events : int;  (** box-monitor OOD frames while driving shifted *)
  pattern_flags : int;
      (** activation-pattern monitor flags over the same drive (the
          complementary monitor of the paper's ref [1]) *)
  kappa : float;  (** measured enlargement distance (∞-norm) *)
  train_loss : float;  (** final head training loss *)
}

type config = {
  seed : int;
  features : int;  (** monitored feature width *)
  train_samples : int;
  train_epochs : int;
  fine_tune_rounds : int;  (** number of successive fine-tunings *)
  fine_tune_samples : int;
  fine_tune_epochs : int;
  drive_steps : int;  (** shifted-condition deployment length *)
  din_buffer : float;  (** relative buffer on the monitored bounds *)
  widen : float;  (** absolute widening of the abstraction chain *)
  dout_margin : float;  (** extra margin of D_out beyond the chain reach *)
}

(** Defaults sized to keep every solver call tractable while leaving the
    MILP with real branching work. *)
let default_config =
  { seed = 7;
    features = 12;
    train_samples = 350;
    train_epochs = 40;
    fine_tune_rounds = 4;
    fine_tune_samples = 150;
    fine_tune_epochs = 3;
    drive_steps = 250;
    din_buffer = 0.05;
    widen = 0.04;
    dout_margin = 0.05 }

(** [build ?config ()] runs the whole generation pipeline
    deterministically from [config.seed]. *)
let build ?(config = default_config) () =
  let rng = Cv_util.Rng.create config.seed in
  let track = Track.stadium () in
  let perception = Perception.create ~rng ~features:config.features () in
  (* 1. Train the head on nominal data. *)
  let train_set =
    Dataset.generate ~conditions:Camera.nominal ~rng ~track ~perception
      config.train_samples
  in
  let head0, history =
    Cv_nn.Train.fit
      ~config:
        { Cv_nn.Train.default_config with
          Cv_nn.Train.epochs = config.train_epochs;
          seed = config.seed + 1 }
      perception.Perception.head
      (Dataset.to_training train_set)
  in
  let perception = Perception.with_head perception head0 in
  let train_loss = match List.rev history with l :: _ -> l | [] -> 0. in
  (* 2. Monitored feature bounds = D_in. *)
  let monitor =
    Cv_monitor.Monitor.of_samples ~buffer:config.din_buffer
      (Dataset.feature_list train_set)
  in
  let din = Cv_monitor.Monitor.current monitor in
  (* 3. D_out from the widened abstraction chain over D_in. *)
  let chain =
    Cv_domains.Analyzer.abstractions ~widen:config.widen
      Cv_domains.Analyzer.Box head0 din
  in
  let dout =
    Cv_interval.Box.expand config.dout_margin (chain.(Array.length chain - 1))
  in
  (* 4. Deploy under shifted conditions; collect OOD events with both
     monitors (value bounds and activation patterns). *)
  let pattern_monitor =
    Cv_monitor.Pattern_monitor.create ~gamma:1 ~width:config.features
      (Dataset.feature_list train_set)
  in
  let state = Controller.init track ~s:0. in
  let _final, drive_trace =
    Controller.drive ~conditions:Camera.shifted ~rng ~track ~perception ~monitor
      ~steps:config.drive_steps state
  in
  let pattern_flags =
    List.fold_left
      (fun acc t ->
        if
          Cv_monitor.Pattern_monitor.observe pattern_monitor
            t.Controller.t_features
        then acc + 1
        else acc)
      0 drive_trace
  in
  let ood_events = Cv_monitor.Monitor.event_count monitor in
  let kappa = Cv_monitor.Monitor.kappa monitor in
  let enlarged_din = Cv_monitor.Monitor.enlarged_box ~margin:0.005 monitor in
  (* 5. Successive fine-tunings (networks 2..5). *)
  let heads = Array.make (config.fine_tune_rounds + 1) head0 in
  for round = 1 to config.fine_tune_rounds do
    let data =
      Dataset.generate ~conditions:Camera.shifted ~rng ~track ~perception
        (config.fine_tune_samples / 2)
      @ Dataset.generate ~conditions:Camera.nominal ~rng ~track ~perception
          (config.fine_tune_samples / 2)
    in
    let tuned, _ =
      Cv_nn.Train.fine_tune
        ~config:
          { Cv_nn.Train.fine_tune_config with
            Cv_nn.Train.epochs = config.fine_tune_epochs;
            seed = config.seed + 10 + round }
        heads.(round - 1)
        (Dataset.to_training data)
    in
    heads.(round) <- tuned
  done;
  { track;
    perception;
    heads;
    din;
    enlarged_din;
    dout;
    ood_events;
    pattern_flags;
    kappa;
    train_loss }

(** [property exp] is the original safety property
    [φ(head, D_in, D_out)]. *)
let property exp = Cv_verify.Property.make ~din:exp.din ~dout:exp.dout

(** [enlarged_property exp] is the SVuDC target
    [φ(head, D_in ∪ Δ_in, D_out)]. *)
let enlarged_property exp =
  Cv_verify.Property.make ~din:exp.enlarged_din ~dout:exp.dout

(** [drift exp round] is the parameter distance between head [round] and
    its predecessor. *)
let drift exp round =
  if round < 1 || round >= Array.length exp.heads then
    invalid_arg "Pipeline.drift";
  Cv_nn.Network.param_dist_inf exp.heads.(round - 1) exp.heads.(round)
