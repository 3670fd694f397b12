(* Tests for the batch verification scheduler (Cv_core.Batch) and the
   content-addressed proof-artifact cache (Cv_artifacts.Cache):
   scheduling-independence of verdicts, deterministic hit/miss
   accounting, LRU eviction, poisoned-job isolation, crash-during-write
   durability, and done-file resume. *)

module Batch = Cv_core.Batch
module Cache = Cv_artifacts.Cache
module Artifacts = Cv_artifacts.Artifacts
module Box = Cv_interval.Box
module Json = Cv_util.Json

let net_of = Gen.net_of

(* Shared fixture (from [Gen]): one network, a provable property (the
   symint over-approximation widened), a falsifiable one (a strict
   sub-box of the true output range), and a proof artifact for the
   incremental modes. *)
let net = net_of 3 [ 3; 6; 5; 1 ]
let din = Box.uniform 3 ~lo:0. ~hi:1.
let safe_prop = Gen.safe_prop net din
let unsafe_prop = Gen.unsafe_prop net din

let artifact =
  let original = Cv_core.Strategy.solve_original net safe_prop in
  assert original.Cv_core.Strategy.proved;
  original.Cv_core.Strategy.artifact

let enlarged_din = Box.expand 0.05 din

let other_net = net_of 99 [ 3; 6; 5; 1 ]

let verify_job id prop =
  { Batch.id;
    spec = Batch.Verify { net; prop; exact = false; artifact_out = None };
    timeout = None }

(* The reference manifest the scheduling-equivalence property permutes:
   every mode, including a poisoned entry (an artifact that was not
   produced for the job's network). *)
let pool =
  [ verify_job "safe1" safe_prop;
    verify_job "unsafe1" unsafe_prop;
    verify_job "safe2" safe_prop;
    { Batch.id = "exact1";
      spec =
        Batch.Verify { net; prop = safe_prop; exact = true; artifact_out = None };
      timeout = None };
    { Batch.id = "svudc1";
      spec = Batch.Svudc { net; artifact; new_din = enlarged_din };
      timeout = None };
    { Batch.id = "svbtv1";
      spec =
        Batch.Svbtv
          { old_net = net;
            new_net =
              Cv_nn.Network.map_layers
                (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 5) ~sigma:0.001)
                net;
            artifact;
            new_din = din };
      timeout = None };
    { Batch.id = "poisoned";
      spec = Batch.Svudc { net = other_net; artifact; new_din = enlarged_din };
      timeout = None } ]

let verdict_map (t : Batch.t) =
  List.map (fun (r : Batch.job_result) -> (r.Batch.job_id, r.Batch.verdict)) t.Batch.results

(* One-shot reference: every pool job run alone, sequentially, cold. *)
let expected =
  lazy
    (List.concat_map
       (fun job -> verdict_map (Batch.run [ job ]))
       pool)

(* ------------------------------------------------------------------ *)
(* Scheduling equivalence                                              *)
(* ------------------------------------------------------------------ *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Cv_util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Any permutation of the manifest at any concurrency level, with or
   without the cache, yields the same per-job verdicts as sequential
   one-shot runs — and reports them in manifest order. *)
let scheduling_equivalence_prop =
  QCheck.Test.make ~name:"batch verdicts independent of order/concurrency"
    ~count:8
    QCheck.(triple (int_range 1 4) (int_range 0 10_000) bool)
    (fun (jobs, seed, cached) ->
      let manifest = shuffle (Cv_util.Rng.create seed) pool in
      let config =
        { Batch.default_config with
          Batch.jobs;
          cache = (if cached then Some (Cache.create ()) else None) }
      in
      let t = Batch.run ~config manifest in
      List.iter2
        (fun (job : Batch.job) (r : Batch.job_result) ->
          if not (String.equal job.Batch.id r.Batch.job_id) then
            QCheck.Test.fail_reportf "results not in manifest order")
        manifest t.Batch.results;
      List.for_all
        (fun (id, v) -> List.assoc id (verdict_map t) = v)
        (Lazy.force expected))

(* ------------------------------------------------------------------ *)
(* Cache accounting                                                    *)
(* ------------------------------------------------------------------ *)

(* Single-flight: K identical queries cost one chain build — exactly 1
   miss and K-1 hits, at any concurrency level. *)
let test_cache_accounting () =
  List.iter
    (fun jobs ->
      let cache = Cache.create () in
      let manifest =
        List.init 6 (fun i -> verify_job (Printf.sprintf "q%d" i) safe_prop)
      in
      let t =
        Batch.run ~config:{ Batch.default_config with Batch.jobs; cache = Some cache }
          manifest
      in
      List.iter
        (fun (r : Batch.job_result) ->
          Alcotest.(check string) "all proved" "safe"
            (Batch.verdict_name r.Batch.verdict))
        t.Batch.results;
      let s = match t.Batch.cache_stats with Some s -> s | None -> assert false in
      Alcotest.(check int)
        (Printf.sprintf "misses at jobs=%d" jobs)
        1 s.Cache.misses;
      Alcotest.(check int)
        (Printf.sprintf "hits at jobs=%d" jobs)
        5 s.Cache.hits)
    [ 1; 4 ]

(* The chain kind renders widen exactly: 0.02 and 0.02000001 are two
   entries, and the second caller gets a chain built with its own
   slack. *)
let test_chain_widen_key () =
  let cache = Cache.create () in
  let chain widen =
    Cv_core.Strategy.chain ~cache ~widen net din
  in
  let a = chain 0.02 and b = chain 0.02000001 in
  let s = Cache.stats cache in
  Alcotest.(check (pair int int)) "2 misses, 0 hits" (2, 0)
    (s.Cache.misses, s.Cache.hits);
  Alcotest.(check bool) "chains differ" false
    (Array.for_all2 (Box.equal ~tol:0.) a b)

(* SVbTV network abstractions go through the cache's in-memory tier:
   two jobs sharing (old net, D_in, D_out) build once, and the batch
   report counts exactly what Cache.stats counts. *)
let test_netabs_counted_by_cache () =
  let svbtv id seed =
    { Batch.id;
      spec =
        Batch.Svbtv
          { old_net = net;
            new_net =
              Cv_nn.Network.map_layers
                (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create seed)
                   ~sigma:0.001)
                net;
            artifact;
            new_din = din };
      timeout = None }
  in
  let cache = Cache.create () in
  let t =
    Batch.run
      ~config:{ Batch.default_config with Batch.cache = Some cache }
      [ svbtv "b1" 5; svbtv "b2" 6 ]
  in
  let s = Cache.stats cache in
  Alcotest.(check int) "one netabs build" 1 s.Cache.misses;
  Alcotest.(check int) "second job hits" 1 s.Cache.hits;
  (match t.Batch.cache_stats with
  | Some r ->
    Alcotest.(check (pair int int)) "report = Cache.stats"
      (s.Cache.hits, s.Cache.misses)
      (r.Cache.hits, r.Cache.misses)
  | None -> Alcotest.fail "cache stats missing");
  Alcotest.(check string) "report json = Cache.stats"
    (Json.to_string (Cache.stats_to_json s))
    (Json.to_string (Json.member "cache" (Batch.report_to_json t)))

(* The in-memory tier caches every build result (None included), is
   typed by its id, and never reaches the backing directory. *)
let test_memo_tier () =
  let dir = Filename.temp_file "cv_memo" "" in
  Sys.remove dir;
  let c = Cache.create ~dir () in
  let id : int option Type.Id.t = Type.Id.make () in
  let builds = ref 0 in
  let lookup () =
    Cache.memo_or_build c id ~fingerprint:"f" ~box_hash:Cache.no_box
      ~kind:"k" (fun () ->
        incr builds;
        None)
  in
  Alcotest.(check (option int)) "built" None (lookup ());
  Alcotest.(check (option int)) "cached" None (lookup ());
  Alcotest.(check int) "one build" 1 !builds;
  let s = Cache.stats c in
  Alcotest.(check (pair int int)) "1 hit, 1 miss" (1, 1)
    (s.Cache.hits, s.Cache.misses);
  Alcotest.(check int) "nothing on disk" 0 (Array.length (Sys.readdir dir));
  let other : string Type.Id.t = Type.Id.make () in
  Alcotest.(check string) "another id reads absent" "x"
    (Cache.memo_or_build c other ~fingerprint:"f" ~box_hash:Cache.no_box
       ~kind:"k" (fun () -> "x"));
  Alcotest.(check bool) "invisible to the json tier" true
    (Cache.find c ~fingerprint:"g" ~box_hash:Cache.no_box ~kind:"k" = None)

let key_a = ("a", Cache.no_box, "k")
let key_b = ("b", Cache.no_box, "k")

let find_k c (fp, bh, k) = Cache.find c ~fingerprint:fp ~box_hash:bh ~kind:k

let store_k c (fp, bh, k) v = Cache.store c ~fingerprint:fp ~box_hash:bh ~kind:k v

(* A capacity-1 cache evicts the LRU entry and counts it. *)
let test_cache_eviction () =
  let c = Cache.create ~capacity:1 () in
  store_k c key_a (Json.Num 1.);
  store_k c key_b (Json.Num 2.);
  Alcotest.(check int) "size bounded" 1 (Cache.size c);
  Alcotest.(check bool) "old entry gone" true (find_k c key_a = None);
  Alcotest.(check bool) "new entry present" true
    (find_k c key_b = Some (Json.Num 2.));
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "evicted lookup missed" 1 s.Cache.misses;
  Alcotest.(check int) "kept lookup hit" 1 s.Cache.hits

(* Disk is the durable store: an evicted (or fresh-process) entry
   re-enters from the backing directory as a hit; foreign bytes under a
   key degrade to a miss, never a wrong artifact. *)
let test_cache_disk_backing () =
  let dir = Filename.temp_file "cv_cache" "" in
  Sys.remove dir;
  let c = Cache.create ~dir () in
  store_k c key_a (Json.Num 42.);
  let c' = Cache.create ~dir () in
  Alcotest.(check bool) "fresh cache hits from disk" true
    (find_k c' key_a = Some (Json.Num 42.));
  Alcotest.(check int) "counted as hit" 1 (Cache.stats c').Cache.hits;
  (* Corrupt every disk entry; a third cache must rebuild, not serve. *)
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      let oc = open_out path in
      output_string oc "{ not json";
      close_out oc)
    (Sys.readdir dir);
  let c'' = Cache.create ~dir () in
  Alcotest.(check bool) "corrupt entry is a miss" true (find_k c'' key_a = None)

(* A Json.Error raised by the builder itself is a build failure, not a
   decode failure: it propagates as-is, without a second build. *)
let test_build_error_not_retried () =
  let c = Cache.create () in
  let builds = ref 0 in
  let build () : Box.t array =
    incr builds;
    raise (Json.Error "builder failed")
  in
  (match
     Cache.boxes_or_build c ~fingerprint:"f" ~box_hash:Cache.no_box ~kind:"k"
       build
   with
  | _ -> Alcotest.fail "builder failure must escape"
  | exception Json.Error _ -> ());
  Alcotest.(check int) "build ran exactly once" 1 !builds

(* A cached payload that fails to decode (foreign bytes under the key)
   rebuilds through the store and repairs the entry. *)
let test_decode_failure_rebuilds () =
  let c = Cache.create () in
  store_k c ("f", Cache.no_box, "boxes") (Json.Str "garbage");
  let builds = ref 0 in
  let boxes = [| Box.uniform 2 ~lo:0. ~hi:1. |] in
  let build () =
    incr builds;
    boxes
  in
  let get () =
    Cache.boxes_or_build c ~fingerprint:"f" ~box_hash:Cache.no_box
      ~kind:"boxes" build
  in
  Alcotest.(check bool) "rebuilt value served" true (get () = boxes);
  Alcotest.(check int) "rebuilt once" 1 !builds;
  Alcotest.(check bool) "repaired entry round-trips" true (get () = boxes);
  Alcotest.(check int) "second lookup is a pure hit" 1 !builds

(* find_or_build: the builder runs once; a second call is a pure hit. *)
let test_find_or_build () =
  let c = Cache.create () in
  let builds = ref 0 in
  let build () =
    incr builds;
    Json.Num 7.
  in
  let v1 =
    Cache.find_or_build c ~fingerprint:"f" ~box_hash:Cache.no_box ~kind:"x" build
  in
  let v2 =
    Cache.find_or_build c ~fingerprint:"f" ~box_hash:Cache.no_box ~kind:"x" build
  in
  Alcotest.(check int) "one build" 1 !builds;
  Alcotest.(check bool) "same payload" true (v1 = v2)

(* ------------------------------------------------------------------ *)
(* Durability under injected faults                                    *)
(* ------------------------------------------------------------------ *)

(* A process killed mid-cache-write must leave the previous entry
   intact: the writer goes through the shared unique-tmp + fsync +
   rename path, so the half-written bytes land in an abandoned tmp
   file, never the entry. *)
let test_crash_during_cache_write () =
  let dir = Filename.temp_file "cv_cache" "" in
  Sys.remove dir;
  let c = Cache.create ~dir () in
  store_k c key_a (Json.Str "v1");
  Cv_util.Fault.enable ~mode:Cv_util.Fault.Once Cv_util.Fault.Kill_mid_checkpoint;
  (match store_k c key_a (Json.Str "v2") with
  | () -> Alcotest.fail "injected kill must escape store"
  | exception Cv_util.Fault.Killed _ -> ());
  Cv_util.Fault.reset ();
  (* The failed write cached nothing: this process still serves v1 ... *)
  Alcotest.(check bool) "memory kept the old value" true
    (find_k c key_a = Some (Json.Str "v1"));
  (* ... and so does a fresh process over the same directory. *)
  let c' = Cache.create ~dir () in
  Alcotest.(check bool) "disk kept the old value" true
    (find_k c' key_a = Some (Json.Str "v1"))

(* Same strike against a truncating writer: the envelope checksum
   catches the damage and the entry degrades to a rebuild. *)
let test_truncated_cache_entry_detected () =
  let dir = Filename.temp_file "cv_cache" "" in
  Sys.remove dir;
  Cv_util.Fault.enable ~mode:Cv_util.Fault.Once Cv_util.Fault.Truncate_artifact;
  let c = Cache.create ~dir () in
  store_k c key_a (Json.Str "payload");
  Cv_util.Fault.reset ();
  let c' = Cache.create ~dir () in
  Alcotest.(check bool) "truncated entry is a miss" true
    (find_k c' key_a = None)

(* ------------------------------------------------------------------ *)
(* Isolation and resume                                                *)
(* ------------------------------------------------------------------ *)

let test_poisoned_job_isolated () =
  let manifest =
    [ verify_job "ok1" safe_prop;
      { Batch.id = "poisoned";
        spec = Batch.Svudc { net = other_net; artifact; new_din = enlarged_din };
        timeout = None };
      verify_job "ok2" safe_prop ]
  in
  let t =
    Batch.run ~config:{ Batch.default_config with Batch.jobs = 2 } manifest
  in
  let v id = List.assoc id (verdict_map t) in
  Alcotest.(check string) "poisoned job crashed" "crashed"
    (Batch.verdict_name (v "poisoned"));
  Alcotest.(check string) "sibling before unaffected" "safe"
    (Batch.verdict_name (v "ok1"));
  Alcotest.(check string) "sibling after unaffected" "safe"
    (Batch.verdict_name (v "ok2"))

let test_duplicate_ids_rejected () =
  match Batch.run [ verify_job "dup" safe_prop; verify_job "dup" unsafe_prop ] with
  | _ -> Alcotest.fail "duplicate ids must be rejected"
  | exception Invalid_argument _ -> ()

(* Distinct ids that sanitise to the same filename would share
   checkpoint/done-file paths; the manifest is rejected up front. *)
let test_colliding_ids_rejected () =
  match Batch.run [ verify_job "a/b" safe_prop; verify_job "a:b" unsafe_prop ] with
  | _ -> Alcotest.fail "sanitise-colliding ids must be rejected"
  | exception Invalid_argument _ -> ()

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* Re-running a manifest against the same checkpoint directory replays
   recorded results instead of re-verifying; a deleted done-file makes
   exactly that job run again. *)
let test_done_file_resume () =
  let dir = Filename.temp_file "cv_batch_ck" "" in
  Sys.remove dir;
  let manifest = [ verify_job "r1" safe_prop; verify_job "r2" unsafe_prop ] in
  let config = { Batch.default_config with Batch.checkpoint_dir = Some dir } in
  let t1 = Batch.run ~config manifest in
  List.iter
    (fun (r : Batch.job_result) ->
      Alcotest.(check bool) "first run is fresh" false r.Batch.resumed)
    t1.Batch.results;
  let t2 = Batch.run ~config manifest in
  List.iter
    (fun (r : Batch.job_result) ->
      Alcotest.(check bool) "second run replays" true r.Batch.resumed)
    t2.Batch.results;
  Alcotest.(check bool) "verdicts preserved" true
    (verdict_map t1 = verdict_map t2);
  Sys.remove (Filename.concat dir "r2.done.json");
  let t3 = Batch.run ~config manifest in
  List.iter
    (fun (r : Batch.job_result) ->
      Alcotest.(check bool)
        (r.Batch.job_id ^ " resumed flag")
        (String.equal r.Batch.job_id "r1")
        r.Batch.resumed)
    t3.Batch.results;
  Alcotest.(check bool) "re-run verdict stable" true
    (verdict_map t1 = verdict_map t3);
  rm_rf dir

(* The continuous-verification hazard: the same job id, re-run under a
   reused --checkpoint-dir after the mode, the property, or the network
   changed. The recorded done-file is stale for the new question and
   must be ignored — never replayed as the verdict of something it
   never verified. *)
let test_stale_done_file_ignored () =
  let dir = Filename.temp_file "cv_batch_stale" "" in
  Sys.remove dir;
  let config = { Batch.default_config with Batch.checkpoint_dir = Some dir } in
  let job ?(net = net) ?(exact = false) prop =
    { Batch.id = "x";
      spec = Batch.Verify { net; prop; exact; artifact_out = None };
      timeout = None }
  in
  let run_one j =
    match (Batch.run ~config [ j ]).Batch.results with
    | [ r ] -> r
    | _ -> assert false
  in
  let r = run_one (job safe_prop) in
  Alcotest.(check string) "baseline verdict" "safe"
    (Batch.verdict_name r.Batch.verdict);
  (* Same network and property, different mode. *)
  let r = run_one (job ~exact:true safe_prop) in
  Alcotest.(check bool) "mode change re-runs" false r.Batch.resumed;
  (* Same network and mode, different property: the recorded "safe"
     must not leak onto a property that is in fact violated. *)
  let r = run_one (job unsafe_prop) in
  Alcotest.(check bool) "property change re-runs" false r.Batch.resumed;
  Alcotest.(check string) "re-verified verdict" "unsafe"
    (Batch.verdict_name r.Batch.verdict);
  (* Same property and mode, retrained network. *)
  let r = run_one (job ~net:other_net unsafe_prop) in
  Alcotest.(check bool) "network change re-runs" false r.Batch.resumed;
  (* Unchanged question: now the done-file is valid and replays. *)
  let r' = run_one (job ~net:other_net unsafe_prop) in
  Alcotest.(check bool) "identical re-run replays" true r'.Batch.resumed;
  Alcotest.(check bool) "replayed verdict preserved" true
    (r'.Batch.verdict = r.Batch.verdict);
  rm_rf dir

let test_job_result_json_roundtrip () =
  let r =
    { Batch.job_id = "j1";
      mode = "verify";
      verdict = Batch.Unsafe;
      decisive = Some "fallback-full";
      attempts = 2;
      seconds = 0.125;
      resumed = true;
      detail = "counterexample found" }
  in
  Alcotest.(check bool) "round-trip" true
    (Batch.job_result_of_json (Batch.job_result_to_json r) = r)

let () =
  Alcotest.run "cv_batch"
    [ ( "scheduling",
        [ QCheck_alcotest.to_alcotest scheduling_equivalence_prop;
          Alcotest.test_case "poisoned job isolated" `Quick
            test_poisoned_job_isolated;
          Alcotest.test_case "duplicate ids rejected" `Quick
            test_duplicate_ids_rejected;
          Alcotest.test_case "colliding ids rejected" `Quick
            test_colliding_ids_rejected;
          Alcotest.test_case "done-file resume" `Quick test_done_file_resume;
          Alcotest.test_case "stale done-file ignored" `Quick
            test_stale_done_file_ignored;
          Alcotest.test_case "job result json round-trip" `Quick
            test_job_result_json_roundtrip ] );
      ( "cache",
        [ Alcotest.test_case "hit/miss accounting" `Quick
            test_cache_accounting;
          Alcotest.test_case "netabs counted by the cache" `Quick
            test_netabs_counted_by_cache;
          Alcotest.test_case "chain key renders widen exactly" `Quick
            test_chain_widen_key;
          Alcotest.test_case "in-memory tier" `Quick test_memo_tier;
          Alcotest.test_case "lru eviction" `Quick test_cache_eviction;
          Alcotest.test_case "disk backing" `Quick test_cache_disk_backing;
          Alcotest.test_case "find_or_build builds once" `Quick
            test_find_or_build;
          Alcotest.test_case "build error not retried" `Quick
            test_build_error_not_retried;
          Alcotest.test_case "decode failure rebuilds" `Quick
            test_decode_failure_rebuilds;
          Alcotest.test_case "crash during cache write" `Quick
            test_crash_during_cache_write;
          Alcotest.test_case "truncated entry detected" `Quick
            test_truncated_cache_entry_detected ] ) ]
