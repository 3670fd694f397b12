(* Tests for Cv_util: float helpers, RNG, JSON, stats, parallel map. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Float_utils                                                         *)
(* ------------------------------------------------------------------ *)

let test_approx_eq () =
  Alcotest.(check bool) "equal" true (Cv_util.Float_utils.approx_eq 1.0 1.0);
  Alcotest.(check bool)
    "within tol" true
    (Cv_util.Float_utils.approx_eq ~tol:1e-6 1.0 (1.0 +. 1e-8));
  Alcotest.(check bool)
    "outside tol" false
    (Cv_util.Float_utils.approx_eq ~tol:1e-9 1.0 1.1);
  Alcotest.(check bool)
    "relative for large" true
    (Cv_util.Float_utils.approx_eq ~tol:1e-9 1e12 (1e12 +. 1.))

let test_clamp () =
  check_float "below" 0. (Cv_util.Float_utils.clamp ~lo:0. ~hi:1. (-3.));
  check_float "above" 1. (Cv_util.Float_utils.clamp ~lo:0. ~hi:1. 3.);
  check_float "inside" 0.5 (Cv_util.Float_utils.clamp ~lo:0. ~hi:1. 0.5)

(* [clamp] with its argument left polymorphic: the same body under the
   runtime's generic compare, which orders floats as IEEE does (NaN is
   unordered). The float-typed [clamp] must return the same bits. *)
let clamp_poly ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let test_clamp_edges () =
  let clamp = Cv_util.Float_utils.clamp in
  let bits = Int64.bits_of_float in
  Alcotest.(check bool) "nan in, nan out" true
    (Float.is_nan (clamp ~lo:0. ~hi:1. Float.nan));
  Alcotest.(check int64) "-0. kept" (bits (-0.)) (bits (clamp ~lo:0. ~hi:1. (-0.)));
  check_float "+inf clamped" 1.5 (clamp ~lo:0. ~hi:1.5 Float.infinity);
  check_float "-inf clamped" 0. (clamp ~lo:0. ~hi:1.5 Float.neg_infinity);
  let xs =
    [ Float.nan; -0.; 0.; Float.infinity; Float.neg_infinity; -3.; 0.5; 1.;
      3.; Float.min_float; -.Float.min_float; Float.max_float ]
  in
  let bounds = [ (0., 1.); (-1., 1.); (-0., 0.); (0., -0.); (0., 1.5) ] in
  List.iter
    (fun (lo, hi) ->
      List.iter
        (fun x ->
          Alcotest.(check int64)
            (Printf.sprintf "clamp ~lo:%h ~hi:%h %h" lo hi x)
            (bits (clamp_poly ~lo ~hi x))
            (bits (clamp ~lo ~hi x)))
        xs)
    bounds

let test_relu_lerp_sign () =
  check_float "relu neg" 0. (Cv_util.Float_utils.relu (-2.));
  check_float "relu pos" 2. (Cv_util.Float_utils.relu 2.);
  check_float "lerp mid" 1.5 (Cv_util.Float_utils.lerp 1. 2. 0.5);
  check_float "sign neg" (-1.) (Cv_util.Float_utils.sign (-0.3));
  check_float "sign zero" 0. (Cv_util.Float_utils.sign 0.)

let test_sum_max_abs () =
  check_float "sum" 6. (Cv_util.Float_utils.sum [| 1.; 2.; 3. |]);
  check_float "max_abs" 5. (Cv_util.Float_utils.max_abs [| 1.; -5.; 3. |]);
  check_float "max_abs empty" 0. (Cv_util.Float_utils.max_abs [||])

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Cv_util.Rng.create 42 and b = Cv_util.Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream"
      (Cv_util.Rng.float a ~lo:0. ~hi:1.)
      (Cv_util.Rng.float b ~lo:0. ~hi:1.)
  done

let test_rng_bounds () =
  let rng = Cv_util.Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Cv_util.Rng.float rng ~lo:(-2.) ~hi:3. in
    Alcotest.(check bool) "in range" true (x >= -2. && x < 3.)
  done

let test_rng_gaussian_moments () =
  let rng = Cv_util.Rng.create 9 in
  let xs = Cv_util.Rng.gaussian_array rng 20000 ~mu:1.5 ~sigma:2. in
  let m = Cv_util.Stats.mean xs in
  let s = Cv_util.Stats.stddev xs in
  Alcotest.(check bool) "mean close" true (Float.abs (m -. 1.5) < 0.1);
  Alcotest.(check bool) "stddev close" true (Float.abs (s -. 2.) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Cv_util.Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Cv_util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let rng = Cv_util.Rng.create 5 in
  let child = Cv_util.Rng.split rng in
  (* Child and parent produce different streams. *)
  let xs = Cv_util.Rng.uniform_array rng 10 ~lo:0. ~hi:1. in
  let ys = Cv_util.Rng.uniform_array child 10 ~lo:0. ~hi:1. in
  Alcotest.(check bool) "different streams" true (xs <> ys)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_print_parse_basic () =
  let open Cv_util.Json in
  let doc =
    Obj
      [ ("a", Num 1.5);
        ("b", Str "hi\n\"there\"");
        ("c", List [ Bool true; Bool false; Null ]);
        ("d", Obj []) ]
  in
  let round = parse (to_string doc) in
  Alcotest.(check string) "roundtrip" (to_string doc) (to_string round)

let test_json_numbers () =
  let open Cv_util.Json in
  check_float "int" 42. (to_float (parse "42"));
  check_float "neg" (-3.25) (to_float (parse "-3.25"));
  check_float "exp" 1e-7 (to_float (parse "1e-7"));
  check_float "nested" 2.
    (to_float (member "x" (parse "{\"x\": 2}")))

let test_json_nonfinite () =
  let open Cv_util.Json in
  let s = to_string (List [ Num Float.infinity; Num Float.neg_infinity ]) in
  match parse s with
  | List [ Num a; Num b ] ->
    Alcotest.(check bool) "inf" true (a = Float.infinity);
    Alcotest.(check bool) "-inf" true (b = Float.neg_infinity)
  | _ -> Alcotest.fail "expected list"

let test_json_errors () =
  let open Cv_util.Json in
  (try
     ignore (parse "{} x");
     Alcotest.fail "should raise on trailing garbage"
   with Error _ -> ());
  (try
     ignore (parse "[1, 2");
     Alcotest.fail "should raise"
   with Error _ -> ());
  try
    ignore (member "missing" (parse "{}"));
    Alcotest.fail "should raise"
  with Error _ -> ()

let test_json_float_array () =
  let open Cv_util.Json in
  let a = [| 1.; -2.5; 3e10 |] in
  Alcotest.(check (array (float 1e-9)))
    "float array roundtrip" a
    (float_array (parse (to_string (of_float_array a))))


let test_json_unicode_escape () =
  let open Cv_util.Json in
  (* \u0041 = 'A'; our writer never emits non-ASCII escapes *)
  (match parse "\"\\u0041\"" with
  | Str "A" -> ()
  | _ -> Alcotest.fail "unicode escape");
  (* control characters are escaped on output and parse back *)
  let s = to_string (Str "a\001b") in
  match parse s with
  | Str v -> Alcotest.(check int) "length preserved" 3 (String.length v)
  | _ -> Alcotest.fail "control char roundtrip"

let check_str_parse name expect src =
  match Cv_util.Json.parse src with
  | Cv_util.Json.Str v -> Alcotest.(check string) name expect v
  | _ -> Alcotest.fail name

let test_json_unicode_bmp () =
  (* 2-byte UTF-8: \u00e9 = é; 3-byte: \u20ac = €, \u4e2d = 中 *)
  check_str_parse "latin-1 supplement" "\xc3\xa9" "\"\\u00e9\"";
  check_str_parse "euro sign" "\xe2\x82\xac" "\"\\u20ac\"";
  check_str_parse "cjk" "\xe4\xb8\xad" "\"\\u4e2d\"";
  check_str_parse "mixed" "a\xc3\xa9b" "\"a\\u00e9b\"";
  (* boundary code points of each encoding width *)
  check_str_parse "u+007f" "\x7f" "\"\\u007f\"";
  check_str_parse "u+0080" "\xc2\x80" "\"\\u0080\"";
  check_str_parse "u+07ff" "\xdf\xbf" "\"\\u07ff\"";
  check_str_parse "u+0800" "\xe0\xa0\x80" "\"\\u0800\"";
  check_str_parse "u+ffff" "\xef\xbf\xbf" "\"\\uffff\""

let test_json_unicode_surrogates () =
  (* \ud83d\ude00 = 😀 (U+1F600), 4-byte UTF-8 *)
  check_str_parse "surrogate pair" "\xf0\x9f\x98\x80" "\"\\ud83d\\ude00\"";
  (* U+10000, the lowest astral code point *)
  check_str_parse "u+10000" "\xf0\x90\x80\x80" "\"\\ud800\\udc00\"";
  (* U+10FFFF, the highest *)
  check_str_parse "u+10ffff" "\xf4\x8f\xbf\xbf" "\"\\udbff\\udfff\"";
  (* lone surrogates decay to U+FFFD *)
  check_str_parse "lone high" "\xef\xbf\xbd" "\"\\ud800\"";
  check_str_parse "lone low" "\xef\xbf\xbd" "\"\\udc00\"";
  check_str_parse "high then ascii escape" "\xef\xbf\xbdA" "\"\\ud800\\u0041\"";
  check_str_parse "high then newline escape" "\xef\xbf\xbd\n" "\"\\ud800\\n\"";
  check_str_parse "high then raw char" "\xef\xbf\xbdx" "\"\\ud800x\"";
  (* malformed hex still rejects *)
  match Cv_util.Json.parse "\"\\uzzzz\"" with
  | exception _ -> ()
  | _ -> Alcotest.fail "bad hex accepted"

let test_json_unicode_roundtrip () =
  (* the writer passes UTF-8 bytes through raw; escaped input must
     round-trip to the identical byte sequence after one decode *)
  let open Cv_util.Json in
  List.iter
    (fun src ->
      match parse src with
      | Str v -> (
        match parse (to_string (Str v)) with
        | Str v' -> Alcotest.(check string) ("roundtrip " ^ src) v v'
        | _ -> Alcotest.fail "roundtrip shape")
      | _ -> Alcotest.fail "decode shape")
    [ "\"\\u00e9\""; "\"\\u20ac\""; "\"\\ud83d\\ude00\""; "\"\\ud800\"" ]

let test_json_deep_nesting () =
  let open Cv_util.Json in
  let rec deep n = if n = 0 then Num 1. else List [ deep (n - 1) ] in
  let doc = deep 100 in
  let doc2 = parse (to_string doc) in
  let rec depth = function List [ x ] -> 1 + depth x | _ -> 0 in
  Alcotest.(check int) "depth preserved" 100 (depth doc2)

let json_roundtrip_prop =
  QCheck.Test.make ~name:"json string escape roundtrip" ~count:300
    QCheck.printable_string (fun s ->
      let open Cv_util.Json in
      match parse (to_string (Str s)) with Str s' -> s' = s | _ -> false)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  check_float "mean" 2. (Cv_util.Stats.mean [| 1.; 2.; 3. |]);
  check_float "mean empty" 0. (Cv_util.Stats.mean [||]);
  check_float "variance" (2. /. 3.) (Cv_util.Stats.variance [| 1.; 2.; 3. |]);
  check_float "median odd" 2. (Cv_util.Stats.median [| 3.; 1.; 2. |]);
  check_float "median even" 2.5 (Cv_util.Stats.median [| 4.; 1.; 2.; 3. |]);
  let lo, hi = Cv_util.Stats.min_max [| 3.; -1.; 2. |] in
  check_float "min" (-1.) lo;
  check_float "max" 3. hi

let test_stats_percentile () =
  let xs = Array.init 101 float_of_int in
  check_float "p0" 0. (Cv_util.Stats.percentile 0. xs);
  check_float "p100" 100. (Cv_util.Stats.percentile 100. xs);
  check_float "p50" 50. (Cv_util.Stats.percentile 50. xs);
  check_float "p25" 25. (Cv_util.Stats.percentile 25. xs)

let test_stats_mse () =
  check_float "mse zero" 0. (Cv_util.Stats.mse [| 1.; 2. |] [| 1.; 2. |]);
  check_float "mse" 0.5 (Cv_util.Stats.mse [| 0.; 0. |] [| 1.; 0. |])

(* ------------------------------------------------------------------ *)
(* Timer / Parallel                                                    *)
(* ------------------------------------------------------------------ *)

let test_timer () =
  let r, dt = Cv_util.Timer.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "time nonneg" true (dt >= 0.)

let test_parallel_map_order () =
  let xs = Array.init 100 Fun.id in
  let ys = Cv_util.Parallel.map ~domains:4 (fun x -> x * x) xs in
  Alcotest.(check (array int)) "squares in order"
    (Array.map (fun x -> x * x) xs)
    ys

let test_parallel_map_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||]
    (Cv_util.Parallel.map ~domains:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "single" [| 7 |]
    (Cv_util.Parallel.map ~domains:4 (fun x -> x + 1) [| 6 |])

let test_parallel_exception () =
  try
    ignore
      (Cv_util.Parallel.map ~domains:2
         (fun x -> if x = 3 then failwith "boom" else x)
         (Array.init 8 Fun.id));
    Alcotest.fail "should raise"
  with Failure msg -> Alcotest.(check string) "propagated" "boom" msg

let test_parallel_predicates () =
  let xs = Array.init 20 Fun.id in
  Alcotest.(check bool) "exists" true
    (Cv_util.Parallel.exists ~domains:3 (fun x -> x = 13) xs);
  Alcotest.(check bool) "not exists" false
    (Cv_util.Parallel.exists ~domains:3 (fun x -> x = 99) xs);
  Alcotest.(check bool) "for_all" true
    (Cv_util.Parallel.for_all ~domains:3 (fun x -> x < 20) xs);
  Alcotest.(check bool) "not for_all" false
    (Cv_util.Parallel.for_all ~domains:3 (fun x -> x < 19) xs)

(* Regression: exists/for_all used to force every element even after a
   witness settled the answer. A poisoned element after the witness must
   never run on the sequential path. *)
let test_parallel_exists_early_exit () =
  let poison i =
    if i = 0 then true else Alcotest.failf "element %d was forced" i
  in
  Alcotest.(check bool) "witness first, poison abandoned" true
    (Cv_util.Parallel.exists ~domains:1 poison (Array.init 8 Fun.id));
  let poison_forall i =
    if i = 0 then false else Alcotest.failf "element %d was forced" i
  in
  Alcotest.(check bool) "counterexample first, poison abandoned" false
    (Cv_util.Parallel.for_all ~domains:1 poison_forall (Array.init 8 Fun.id))

let test_parallel_exists_witness_wins () =
  (* Parallel path: a found witness settles the answer even when other
     elements raise concurrently. *)
  let xs = Array.init 64 Fun.id in
  Alcotest.(check bool) "all witnesses" true
    (Cv_util.Parallel.exists ~domains:4 (fun _ -> true) xs);
  (* No witness at all: the exception must still propagate. *)
  (try
     ignore (Cv_util.Parallel.exists ~domains:4 (fun _ -> failwith "boom") xs);
     Alcotest.fail "should raise without a witness"
   with Failure msg -> Alcotest.(check string) "propagated" "boom" msg)

let test_parallel_max_time () =
  let thunks = Array.init 4 (fun i () -> i * 2) in
  let results, max_t, sum_t = Cv_util.Parallel.max_time ~domains:2 thunks in
  Alcotest.(check (array int)) "results" [| 0; 2; 4; 6 |] results;
  Alcotest.(check bool) "max<=sum" true (max_t <= sum_t +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = Cv_util.Heap.create () in
  Alcotest.(check bool) "empty" true (Cv_util.Heap.is_empty h);
  Alcotest.(check (option (pair (float 0.) string))) "peek empty" None
    (Cv_util.Heap.peek h);
  Cv_util.Heap.push h 1.5 "b";
  Cv_util.Heap.push h 3.0 "a";
  Cv_util.Heap.push h 0.5 "c";
  Alcotest.(check int) "size" 3 (Cv_util.Heap.size h);
  Alcotest.(check (option (pair (float 0.) string)))
    "peek max" (Some (3.0, "a")) (Cv_util.Heap.peek h);
  Alcotest.(check (option (pair (float 0.) string)))
    "pop max" (Some (3.0, "a")) (Cv_util.Heap.pop h);
  Alcotest.(check (option (pair (float 0.) string)))
    "pop next" (Some (1.5, "b")) (Cv_util.Heap.pop h);
  Alcotest.(check (option (pair (float 0.) string)))
    "pop last" (Some (0.5, "c")) (Cv_util.Heap.pop h);
  Alcotest.(check (option (pair (float 0.) string))) "pop empty" None
    (Cv_util.Heap.pop h)

(* Interleaved pushes and pops drain in non-increasing priority order
   (the invariant the best-first frontier relies on), across the
   internal growth threshold. *)
let test_heap_ordering () =
  let h = Cv_util.Heap.create () in
  let rng = Cv_util.Rng.create 7 in
  for i = 0 to 199 do
    Cv_util.Heap.push h (Cv_util.Rng.float rng ~lo:0. ~hi:100.) i;
    if i mod 3 = 0 then ignore (Cv_util.Heap.pop h)
  done;
  let last = ref Float.infinity in
  let n = ref 0 in
  let rec drain () =
    match Cv_util.Heap.pop h with
    | None -> ()
    | Some (p, _) ->
      Alcotest.(check bool) "non-increasing" true (p <= !last);
      last := p;
      incr n;
      drain ()
  in
  drain ();
  Alcotest.(check int) "drained all" (200 - 67) !n;
  Alcotest.(check bool) "empty after drain" true (Cv_util.Heap.is_empty h)

(* One [Some i] per iteration is a header plus one field: two words.
   Right after a minor collection, [Gc.allocated_bytes] on OCaml 5.1
   reads this loop as 2 B/iter; the helper must read 16 (on 64 bits). *)
let test_allocated_bytes () =
  let expected = float_of_int (2 * (Sys.word_size / 8)) in
  Gc.minor ();
  let b0 = Cv_util.Metrics.allocated_bytes () in
  for i = 1 to 1000 do
    ignore (Sys.opaque_identity (Some i))
  done;
  let per_iter = (Cv_util.Metrics.allocated_bytes () -. b0) /. 1000. in
  Alcotest.(check (float 0.5)) "bytes per Some" expected per_iter

let () =
  Alcotest.run "cv_util"
    [ ( "float_utils",
        [ Alcotest.test_case "approx_eq" `Quick test_approx_eq;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "clamp edge cases" `Quick test_clamp_edges;
          Alcotest.test_case "relu/lerp/sign" `Quick test_relu_lerp_sign;
          Alcotest.test_case "sum/max_abs" `Quick test_sum_max_abs ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent ] );
      ( "json",
        [ Alcotest.test_case "print/parse" `Quick test_json_print_parse_basic;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "non-finite" `Quick test_json_nonfinite;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "float arrays" `Quick test_json_float_array;
          Alcotest.test_case "unicode escape" `Quick test_json_unicode_escape;
          Alcotest.test_case "unicode bmp" `Quick test_json_unicode_bmp;
          Alcotest.test_case "unicode surrogates" `Quick
            test_json_unicode_surrogates;
          Alcotest.test_case "unicode roundtrip" `Quick
            test_json_unicode_roundtrip;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
          QCheck_alcotest.to_alcotest json_roundtrip_prop ] );
      ( "stats",
        [ Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "mse" `Quick test_stats_mse ] );
      ( "timer+parallel",
        [ Alcotest.test_case "timer" `Quick test_timer;
          Alcotest.test_case "map order" `Quick test_parallel_map_order;
          Alcotest.test_case "map edge cases" `Quick
            test_parallel_map_empty_and_single;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_exception;
          Alcotest.test_case "predicates" `Quick test_parallel_predicates;
          Alcotest.test_case "exists early exit" `Quick
            test_parallel_exists_early_exit;
          Alcotest.test_case "exists witness wins" `Quick
            test_parallel_exists_witness_wins;
          Alcotest.test_case "max_time" `Quick test_parallel_max_time ] );
      ( "metrics",
        [ Alcotest.test_case "allocated_bytes counts bytes" `Quick
            test_allocated_bytes ] );
      ( "heap",
        [ Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "ordering" `Quick test_heap_ordering ] ) ]
