(* Shared machinery of the benchmark: the run record every workload
   fills in, closed-loop timing, quantiles, and the per-layer view built
   from the program's own Cv_util.Metrics counters and from the spans the
   benchmark wraps around its calls into each layer. *)

let now = Cv_util.Clock.now

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Linearly interpolated quantile (q in [0, 1]) of an unsorted sample;
   nan for an empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* The run record                                                      *)
(* ------------------------------------------------------------------ *)

(* [small] shrinks every workload to a size the self-test can run twice
   in a few seconds; the benchmark always runs full size. *)
type t = {
  workload : string;
  seed : int;
  seconds : float;
      (* how long the closed loop measures; 0 runs only the fixed
         minimum number of operations *)
  traced : bool;
  small : bool;
  tmp : string;  (* scratch directory inside the checkout *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable setup_runs : float list;  (* seconds of each set-up repetition *)
  mutable resetup : unit -> unit;  (* one more timed set-up repetition *)
  mutable latencies : float list;
      (* seconds per closed-loop operation, at reference speed *)
  mutable cases : (string * float) list;
      (* the same samples keyed by case, when a sweep repeats a fixed set
         of distinct cases (table1); see [op_p50] *)
  mutable rates : float list;
      (* operations (or frames) per second of one sweep, batch or
         session; throughput is their median, so a slow spell of the
         machine moves it less than one run-wide ratio would *)
  mutable reference : float list;
      (* traced runs only: the same operations timed with tracing off,
         for the tracing overhead *)
  mutable named : (string * float * string) list;
      (* the workload's own end-to-end figures, by name, value, unit *)
  layers : (string, float) Hashtbl.t;
  mutable counts : (string * string) list;
      (* deterministic outcome digest compared by the self-test *)
  mutable spans : Cv_util.Json.t list;
      (* completed span roots of the traced sections, newest first *)
  mutable chain_flops : float;
      (* computed flops of one symint chain build on the workload's net *)
  mutable calibrations : float list;
      (* seconds of each calibration kernel run, newest first; see [calibrate] *)
  mutable speed : float;
      (* current reference-speed factor: multiply a measured time by it *)
}

let create ~workload ~seed ~seconds ~traced ~small ~tmp =
  { workload; seed; seconds; traced; small; tmp; attempted = 0; failed = 0;
    failures = []; setup_runs = []; resetup = ignore; latencies = []; cases = [];
    rates = [];
    reference = []; named = []; layers = Hashtbl.create 64; counts = [];
    spans = []; chain_flops = 0.; calibrations = []; speed = 1. }

(* [expect t ok what] counts one checked operation; a mismatch is a
   failed operation with its reason kept for the report. *)
let expect t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.failures <- what :: t.failures
  end

let named t key value unit_ = t.named <- (key, value, unit_) :: t.named
let rate t count seconds = t.rates <- (float_of_int count /. seconds) :: t.rates
let throughput t = median t.rates

(* Median operation latency. With a fixed set of distinct cases the
   pooled median sits on the edge between the two middle cases and
   follows the slowest sample of one of them; the median of the
   per-case medians does not. *)
let op_p50 t =
  match t.cases with
  | [] -> median t.latencies
  | samples ->
    let ids = List.sort_uniq compare (List.map fst samples) in
    median
      (List.map
         (fun id ->
           median (List.filter_map (fun (k, s) -> if k = id then Some s else None) samples))
         ids)

let set t key v = Hashtbl.replace t.layers key v
let add t key v =
  Hashtbl.replace t.layers key
    (v +. Option.value ~default:0. (Hashtbl.find_opt t.layers key))
let get t key = Option.value ~default:0. (Hashtbl.find_opt t.layers key)
let count t key value =
  t.counts <- (key, value) :: List.remove_assoc key t.counts

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Collect the garbage earlier operations left behind before the clock
   starts, so that an operation pays for its own allocation only; without
   it a small certificate emitted after a MILP one took about a third
   longer, depending on when the major GC happened to run. *)
let settle () = Gc.full_major ()

(* Reference speed. The shared machines the benchmark runs on slow down
   for seconds at a time (by up to 2x on the 2-vCPU machine it was tuned
   on), and that moves every timing of a run alike. Before each
   operation the benchmark times a fixed kernel of dense float work and
   scales the operation's time by [reference_s] over the recent median
   kernel time (see [calibrate]): every reported time is "seconds at
   reference speed", and [machine.speed] reports the factor used. The
   kernel does not call contiver, so a change to contiver moves the
   scaled times as it moves the measured ones. [reference_s] is about
   the kernel's time on the tuning machine at its faster speed. *)
let reference_s = 1e-3

let calib_n = 64
let calib_mat = Float.Array.init (calib_n * calib_n) (fun i -> Float.of_int ((i * 7919) mod 97) /. 97.)

(* About a millisecond of matrix-vector products. It allocates nothing:
   with allocation its time followed the state of the minor heap more
   than the speed of the machine. *)
let calib_kernel () =
  let n = calib_n in
  let x = Float.Array.make n 1. and y = Float.Array.make n 0. in
  for _ = 1 to 250 do
    for i = 0 to n - 1 do
      let acc = ref 0. in
      for j = 0 to n - 1 do
        acc := !acc +. (Float.Array.unsafe_get calib_mat ((i * n) + j) *. Float.Array.unsafe_get x j)
      done;
      Float.Array.unsafe_set y i !acc
    done;
    let norm = ref 1e-300 in
    for i = 0 to n - 1 do
      norm := Float.max !norm (Float.abs (Float.Array.unsafe_get y i))
    done;
    for i = 0 to n - 1 do
      Float.Array.unsafe_set x i (Float.Array.unsafe_get y i /. !norm)
    done
  done;
  Float.Array.get x 0

(* The workloads slow down less than the kernel does: on the tuning
   machine their log-slowdown was about [sensitivity] times the
   kernel's. *)
let sensitivity = 0.85

(* Time the kernel on as many domains at once as contiver's parallel code
   uses (their mean), since a slow spell hits one vCPU at a time and the
   work may run on any of them; timing it on one domain tracked even the
   sequential workloads worse. [t.speed] comes from the median of the
   last five calibrations, so that one disturbed call does not move it
   but a slow spell shows within a few operations. *)
let calibrate t =
  let kernel () = snd (timed (fun () -> Sys.opaque_identity (calib_kernel ()))) in
  let domains = Cv_util.Parallel.default_domains in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel) in
  let mine = kernel () in
  let c = sum (mine :: List.map Domain.join others) /. float_of_int domains in
  t.calibrations <- c :: t.calibrations;
  let recent = List.filteri (fun i _ -> i < 5) t.calibrations in
  t.speed <- (reference_s /. median recent) ** sensitivity

(* The first calls of a process run slower; a run calibrates a few times
   before anything is timed. *)
let warm_up t =
  for _ = 1 to 10 do
    settle ();
    calibrate t
  done

(* A measured time at reference speed. *)
let norm t s = s *. t.speed

(* Median speed factor of the run, reported as [machine.speed]. *)
let machine_speed t = (reference_s /. median t.calibrations) ** sensitivity

(* [setup t f] runs the workload's set-up once and returns its result.
   Untraced runs repeat it between operations of the measured loop (see
   [measure]) and report the median of [setup_reps] repetitions spread
   over the run, so that one slow spell of the machine does not decide
   setup_s. *)
let setup_reps = 5

let setup t f =
  let timed_setup () =
    settle ();
    calibrate t;
    let r, s = timed f in
    t.setup_runs <- norm t s :: t.setup_runs;
    r
  in
  let r = timed_setup () in
  t.resetup <- (fun () -> ignore (timed_setup ()));
  r

let setup_s t = median t.setup_runs

(* Closed loop: operation [i] starts when operation [i-1] ends. Runs
   until at least [min_ops] operations are done and [seconds] have
   elapsed; returns the number of operations run. *)
let closed_loop ~seconds ~min_ops op =
  let t0 = now () in
  let i = ref 0 in
  while !i < min_ops || now () -. t0 < seconds do
    op !i;
    incr i
  done;
  !i

(* [batched ~reps f] times [reps] back-to-back calls as one region and
   returns the per-call mean, so that no timed region is shorter than a
   millisecond for calls that take microseconds. *)
let batched ~reps f =
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int reps

(* ------------------------------------------------------------------ *)
(* Layer accounting                                                    *)
(* ------------------------------------------------------------------ *)

let snapshot () =
  let h = Hashtbl.create 96 in
  List.iter (fun (k, v) -> Hashtbl.replace h k (float_of_int v))
    (Cv_util.Metrics.counters ());
  List.iter (fun (k, v) -> Hashtbl.replace h k v) (Cv_util.Metrics.timers ());
  let g = Gc.quick_stat () in
  Hashtbl.replace h "gc.minor" (float_of_int g.Gc.minor_collections);
  Hashtbl.replace h "gc.major" (float_of_int g.Gc.major_collections);
  Hashtbl.replace h "gc.allocated_words"
    (g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words);
  h

(* Raw counter and timer deltas summed over the measured operations,
   under "raw:<name>"; [derive] turns them into the per-layer table. *)
let accumulate t before after =
  Hashtbl.iter
    (fun k v ->
      let v0 = Option.value ~default:0. (Hashtbl.find_opt before k) in
      if v <> v0 then add t ("raw:" ^ k) (v -. v0))
    after

(* [op t ~measured ~layer ~id f] is one top-level call into [layer],
   timed: it returns [f]'s result and its seconds at reference speed
   (times the workload reads from [f]'s result are scaled with [norm]).
   When [measured] (the traced pass of a traced run) it is wrapped in a
   benchmark span (workload and operation id as attributes) and the
   program's counters are snapshotted around it. *)
let op t ~measured ~layer ~id f =
  settle ();
  calibrate t;
  let r, s =
    if not measured then timed f
    else begin
      let before = snapshot () in
      let r =
        timed (fun () ->
            Cv_util.Trace.with_span ("bench." ^ layer)
              ~attrs:[ ("workload", t.workload); ("op", id) ]
              f)
      in
      accumulate t before (snapshot ());
      r
    end
  in
  (r, norm t s)

(* A benchmark span around a layer call that is not one of the
   workload's top-level operations (the traced-only layer probes). *)
let probe t ~layer ~id f =
  Cv_util.Trace.with_span ("bench." ^ layer)
    ~attrs:[ ("workload", t.workload); ("op", id) ]
    f

let raw t k = get t ("raw:" ^ k)

(* Per-cache statistics of one operation's own Cache (the global
   cache.* counters also count Batch.Memo lookups). *)
let add_cache t (s : Cv_artifacts.Cache.stats) =
  add t "cache.hits" (float_of_int s.Cv_artifacts.Cache.hits);
  add t "cache.misses" (float_of_int s.Cv_artifacts.Cache.misses);
  add t "cache.evictions" (float_of_int s.Cv_artifacts.Cache.evictions);
  let hits = get t "cache.hits" in
  set t "cache.hit_ratio" (ratio hits (hits +. get t "cache.misses"))

(* Symbolic-interval propagation cost of one chain build, computed from
   the layer shapes: per layer two sign-selected GEMMs over the d input
   coefficients plus two GEMVs for the constants, 2 flops per
   multiply-add, i.e. 4·m·n·(d+1). *)
let symint_flops net =
  let d = Cv_nn.Network.in_dim net in
  Array.fold_left
    (fun acc l ->
      let m = Cv_nn.Layer.out_dim l and n = Cv_nn.Layer.in_dim l in
      acc +. (4. *. float_of_int m *. float_of_int n *. float_of_int (d + 1)))
    0. (Cv_nn.Network.layers net)

(* The per-layer table: counter deltas renamed to the benchmark's names,
   plus ratios formed where the work happens. Probe timings set by the
   workloads directly are kept. *)
let derive t =
  let r = raw t in
  set t "lp.pivots" (r "lp.pivots");
  set t "lp.solves" (r "lp.solves");
  set t "lp.warmstart.hit_ratio"
    (ratio (r "lp.warmstart.hits")
       (r "lp.warmstart.hits" +. r "lp.warmstart.misses"));
  set t "lp.dual_s" (r "lp.dual.seconds");
  set t "lp.cert_s" (r "lp.cert.seconds");
  set t "lp.cold_s" (r "lp.cold.seconds");
  set t "milp.nodes" (r "milp.nodes");
  set t "milp.fathom_ratio" (ratio (r "milp.fathomed") (r "milp.nodes"));
  set t "milp.s" (r "milp.seconds");
  set t "verify.checks" (r "verify.checks");
  set t "verify.falsify.hit_ratio"
    (ratio (r "verify.falsify.hits") (r "verify.falsify.samples"));
  set t "core.attempts_per_decision"
    (ratio (r "core.attempts") (r "core.decisive"));
  set t "domains.symint.calls" (r "domains.symint.calls");
  set t "domains.symint.seconds" (r "domains.symint.seconds");
  let kernel_s =
    r "kernel.gemm.seconds" +. r "kernel.gemv.seconds"
    +. r "kernel.posneg.seconds"
  in
  set t "kernel.gemm_s" (r "kernel.gemm.seconds");
  set t "kernel.gemv_s" (r "kernel.gemv.seconds");
  set t "kernel.posneg_s" (r "kernel.posneg.seconds");
  set t "kernel.bytes_alloc" (r "kernel.bytes_alloc");
  let flops = r "domains.symint.calls" *. t.chain_flops in
  set t "kernel.flops" flops;
  set t "kernel.gflops" (ratio flops kernel_s /. 1e9);
  set t "checkpoint.saves" (r "checkpoint.saves");
  set t "batch.crashed" (r "batch.crashed");
  set t "serve.events.seen" (r "serve.events.seen");
  set t "serve.events.ood" (r "serve.events.ood");
  set t "serve.events.dropped" (r "serve.events.dropped");
  set t "serve.rounds" (r "serve.rounds");
  set t "serve.commit_ratio" (ratio (r "serve.commits") (r "serve.rounds"));
  set t "supervisor.retries" (r "supervisor.retries");
  set t "gc.minor" (r "gc.minor");
  set t "gc.major" (r "gc.major");
  set t "gc.allocated_mb"
    (r "gc.allocated_words" *. float_of_int (Sys.word_size / 8) /. 1048576.)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sname : string;
  dur : float;
  attrs : (string * string) list;
  children : span list;
}

let rec span_of_json j =
  let open Cv_util.Json in
  let attrs =
    match member_opt "attrs" j with
    | Some (Obj kvs) -> List.map (fun (k, v) -> (k, to_str v)) kvs
    | _ -> []
  in
  let children =
    match member_opt "children" j with
    | Some l -> List.map span_of_json (to_list l)
    | None -> []
  in
  { sname = to_str (member "name" j); dur = to_float (member "dur_s" j);
    attrs; children }

let rec iter_spans f s =
  f s;
  List.iter (iter_spans f) s.children

(* Route accounting from the program's own "strategy.attempt" spans:
   wall time per attempt name and how often that name decided. A layer's
   self time is its span duration minus what its child spans cover. *)
let account_spans t forest =
  let spans = ref 0 in
  List.iter
    (iter_spans (fun s ->
         incr spans;
         (if s.sname = "strategy.attempt" then
            match List.assoc_opt "name" s.attrs with
            | Some name ->
              add t ("route." ^ name ^ ".wall_s") s.dur;
              let outcome =
                Option.value ~default:"" (List.assoc_opt "outcome" s.attrs)
              in
              if
                not
                  (String.starts_with ~prefix:"INCONCLUSIVE" outcome)
              then add t ("route." ^ name ^ ".decided") 1.
            | None -> ());
         if String.starts_with ~prefix:"bench." s.sname then
           add t
             ("self:" ^ s.sname)
             (s.dur -. sum (List.map (fun c -> c.dur) s.children))))
    forest;
  set t "trace.spans" (float_of_int !spans)

(* [traced_section t f] records spans while [f] runs (traced runs only).
   Enabling the recorder clears it, so each section's roots are saved
   before the next section starts. *)
let traced_section t f =
  if not t.traced then f ()
  else begin
    Cv_util.Trace.enable ();
    Fun.protect
      ~finally:(fun () ->
        let roots =
          Cv_util.Json.to_list (Cv_util.Json.member "trace" (Cv_util.Trace.to_json ()))
        in
        Cv_util.Trace.disable ();
        t.spans <- List.rev_append roots t.spans)
      f
  end

(* The measured loop of a workload; [op ~measured i] runs operation [i]
   and records its samples in [t.latencies] and [t.rates]. Untraced: a
   closed loop for [t.seconds] and at least [min_ops] operations.
   Traced: [fixed] operations with tracing off, kept as the reference
   for the tracing overhead, then the same [fixed] operations with spans
   and counters on; a fixed count makes the counters repeat exactly for
   a seed. [reset] clears the workload's own samples between the two. *)
let measure t ~min_ops ~fixed ~reset op =
  if not t.traced then begin
    let t0 = now () and due = ref 1 in
    ignore
      (closed_loop ~seconds:t.seconds ~min_ops (fun i ->
           op ~measured:false i;
           let at = t.seconds *. float_of_int !due /. float_of_int setup_reps in
           if !due < setup_reps && now () -. t0 >= at then begin
             incr due;
             t.resetup ()
           end));
    while List.length t.setup_runs < setup_reps do
      t.resetup ()
    done
  end
  else begin
    ignore (closed_loop ~seconds:0. ~min_ops:fixed (op ~measured:false));
    t.reference <- t.latencies;
    t.latencies <- [];
    t.cases <- [];
    t.rates <- [];
    reset ();
    traced_section t (fun () ->
        ignore (closed_loop ~seconds:0. ~min_ops:fixed (op ~measured:true)))
  end

(* Write every recorded span to [t.tmp] when the run ends and fold them
   into the route and self-time accounting; returns the file written. *)
let finish_trace t =
  let roots = List.rev t.spans in
  account_spans t (List.map span_of_json roots);
  let path =
    Filename.concat t.tmp (Printf.sprintf "trace-%s-%d.json" t.workload t.seed)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Cv_util.Json.to_string (Cv_util.Json.Obj [ ("trace", Cv_util.Json.List roots) ])));
  path

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let rec du p =
  if Sys.is_directory p then
    Array.fold_left (fun acc f -> acc + du (Filename.concat p f)) 0 (Sys.readdir p)
  else (Unix.stat p).Unix.st_size

(* Seeds of the sub-generators, all derived from the workload seed. *)
let subseed t k = (t.seed * 1_000_003) + k

(* The vehicle experiment behind table1, serve-drive and certify. Its
   pipeline seed is fixed rather than taken from the workload seed:
   heads trained from other pipeline seeds need 3 to 10 s per exact
   original solve, so seed-to-seed spread would swamp any regression
   bound. Seed 1 keeps OOD events (so SVuDC is never the trivial route)
   and the four originals near 20 s in total. The workload seed drives
   everything generated around the experiment. *)
let pipeline t =
  let c = { Cv_vehicle.Pipeline.default_config with Cv_vehicle.Pipeline.seed = 1 } in
  if not t.small then c
  else
    { c with
      Cv_vehicle.Pipeline.features = 3;
      train_samples = 80;
      train_epochs = 8;
      fine_tune_rounds = 1;
      fine_tune_samples = 40;
      fine_tune_epochs = 2;
      drive_steps = 60 }
