(* Equivalence and allocation tests for the PR 9 kernel layer: blocked
   / parallel / workspace kernels against naive reference
   implementations, sign-split fidelity at ±0.0 and subnormals,
   flat-store zonotopes against the historical row-array semantics, and
   the steady-state allocation guarantee behind [kernel.bytes_alloc]. *)

module Mat = Cv_linalg.Mat
module Workspace = Cv_linalg.Workspace

(* ------------------------------------------------------------------ *)
(* Naive references (the exact historical accumulation orders).        *)

let ref_matmul a b =
  let m = Mat.rows a and k = Mat.cols a and n = Mat.cols b in
  let c = Mat.zeros m n in
  for i = 0 to m - 1 do
    for t = 0 to k - 1 do
      let aik = Mat.get a i t in
      if aik <> 0. then
        for j = 0 to n - 1 do
          Mat.set c i j (Mat.get c i j +. (aik *. Mat.get b t j))
        done
    done
  done;
  c

let ref_matvec m v =
  Array.init (Mat.rows m) (fun i ->
      let acc = ref 0. in
      for j = 0 to Mat.cols m - 1 do
        acc := !acc +. (Mat.get m i j *. v.(j))
      done;
      !acc)

(* Same selection and same per-element k-ascending order as the fused
   kernel claims. *)
let ref_gemm_select a pos_src neg_src =
  let m = Mat.rows a and k = Mat.cols a and n = Mat.cols pos_src in
  let c = Mat.zeros m n in
  for i = 0 to m - 1 do
    for t = 0 to k - 1 do
      let aik = Mat.get a i t in
      if aik <> 0. then begin
        let src = if aik > 0. then pos_src else neg_src in
        for j = 0 to n - 1 do
          Mat.set c i j (Mat.get c i j +. (aik *. Mat.get src t j))
        done
      end
    done
  done;
  c

let ref_gemv_select a ~pos ~neg ~acc =
  Array.init (Mat.rows a) (fun i ->
      let s = ref acc.(i) in
      for j = 0 to Mat.cols a - 1 do
        let aij = Mat.get a i j in
        if aij > 0. then s := !s +. (aij *. pos.(j))
        else if aij < 0. then s := !s +. (aij *. neg.(j))
      done;
      !s)

(* Bitwise float equality (distinguishes nothing we care about less
   than: NaN never appears in these tests, ±0.0 compare equal under
   [=] which is exactly the visibility the domains have). *)
let mat_eq a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  &&
  let ok = ref true in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to Mat.cols a - 1 do
      if not (Mat.get a i j = Mat.get b i j) then ok := false
    done
  done;
  !ok

let vec_eq a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

let bits_eq a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  &&
  let ok = ref true in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to Mat.cols a - 1 do
      if
        Int64.bits_of_float (Mat.get a i j)
        <> Int64.bits_of_float (Mat.get b i j)
      then ok := false
    done
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Generators: shapes off the block boundaries, including degenerate
   ones; entries with exact zeros, signed zeros and subnormals mixed
   into ordinary magnitudes. *)

let shape_gen = Gen.shape_gen

let mat_gen = Gen.mat_gen

let vec_gen = Gen.vec_gen

let matmul_args =
  QCheck.make
    QCheck.Gen.(
      shape_gen >>= fun m ->
      shape_gen >>= fun k ->
      shape_gen >>= fun n ->
      mat_gen m k >>= fun a ->
      mat_gen k n >>= fun b -> return (a, b))

let matmul_matches_naive =
  QCheck.Test.make ~name:"blocked matmul = naive reference" ~count:150
    matmul_args
    (fun (a, b) -> mat_eq (Mat.matmul a b) (ref_matmul a b))

let matmul_into_workspace =
  QCheck.Test.make ~name:"matmul_into workspace dst = matmul" ~count:100
    matmul_args
    (fun (a, b) ->
      let ws = Workspace.create () in
      let dst = Workspace.mat ws ~slot:0 ~rows:(Mat.rows a) ~cols:(Mat.cols b) in
      Mat.matmul_into ~dst a b;
      mat_eq dst (Mat.matmul a b))

let matvec_matches_naive =
  QCheck.Test.make ~name:"matvec = naive reference" ~count:150
    (QCheck.make
       QCheck.Gen.(
         shape_gen >>= fun m ->
         shape_gen >>= fun n ->
         mat_gen m n >>= fun a ->
         vec_gen n >>= fun v -> return (a, v)))
    (fun (a, v) -> vec_eq (Mat.matvec a v) (ref_matvec a v))

let transb_args =
  QCheck.make
    QCheck.Gen.(
      shape_gen >>= fun m ->
      shape_gen >>= fun k ->
      shape_gen >>= fun n ->
      mat_gen m k >>= fun a ->
      mat_gen n k >>= fun b -> return (a, b))

let transb_matches_matvec_rows =
  QCheck.Test.make
    ~name:"matmul_transb row i = matvec over b rows (ascending, no skip)"
    ~count:100 transb_args
    (fun (a, b) ->
      (* a: m×k, b: n×k. Row i of a·bᵀ must be the per-row
         single-accumulator dot products the old zonotope affine
         computed. *)
      let c = Mat.matmul_transb a b in
      let ok = ref (Mat.rows c = Mat.rows a && Mat.cols c = Mat.rows b) in
      for i = 0 to Mat.rows a - 1 do
        let expect = ref_matvec b (Mat.row a i) in
        for j = 0 to Mat.rows b - 1 do
          if Int64.bits_of_float (Mat.get c i j)
             <> Int64.bits_of_float expect.(j)
          then ok := false
        done
      done;
      !ok)

let gemm_select_matches_naive =
  QCheck.Test.make ~name:"gemm_select_into = naive select reference"
    ~count:150 matmul_args
    (fun (a, pos_src) ->
      let neg_src = Mat.map (fun x -> -.x) pos_src in
      let dst = Mat.zeros (Mat.rows a) (Mat.cols pos_src) in
      Mat.gemm_select_into ~dst a ~pos_src ~neg_src;
      mat_eq dst (ref_gemm_select a pos_src neg_src))

let gemv_select_matches_naive =
  QCheck.Test.make ~name:"gemv_select_acc = naive select reference" ~count:150
    (QCheck.make
       QCheck.Gen.(
         shape_gen >>= fun m ->
         shape_gen >>= fun n ->
         mat_gen m n >>= fun a ->
         vec_gen n >>= fun pos ->
         vec_gen n >>= fun neg ->
         vec_gen m >>= fun acc -> return (a, pos, neg, acc)))
    (fun (a, pos, neg, acc) ->
      let expect = ref_gemv_select a ~pos ~neg ~acc in
      let got = Array.copy acc in
      Mat.gemv_select_acc a ~pos ~neg ~acc:got;
      vec_eq got expect)

(* gemv_posneg over a prepared sign split must agree with the
   branch-per-entry interval gemv on finite boxes — including weights
   that are ±0.0 or subnormal. *)
let posneg_matches_interval =
  QCheck.Test.make ~name:"gemv_posneg = gemv_interval_into (finite boxes)"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         shape_gen >>= fun m ->
         shape_gen >>= fun n ->
         mat_gen m n >>= fun w ->
         vec_gen m >>= fun bias ->
         vec_gen n >>= fun c ->
         vec_gen n >>= fun r -> return (w, bias, c, r)))
    (fun (w, bias, c, r) ->
      let n = Mat.cols w and m = Mat.rows w in
      let lo = Array.init n (fun j -> c.(j) -. Float.abs r.(j)) in
      let hi = Array.init n (fun j -> c.(j) +. Float.abs r.(j)) in
      let pos = Mat.map (fun x -> if x > 0. then x else 0.) w in
      let neg = Mat.map (fun x -> if x < 0. then x else 0.) w in
      let lo1 = Array.make m 0. and hi1 = Array.make m 0. in
      let lo2 = Array.make m 0. and hi2 = Array.make m 0. in
      Mat.gemv_interval_into w ~bias ~lo ~hi ~dst_lo:lo1 ~dst_hi:hi1;
      Mat.gemv_posneg ~pos ~neg ~bias ~lo ~hi ~dst_lo:lo2 ~dst_hi:hi2;
      let tol = 1e-9 in
      let close a b = Float.abs (a -. b) <= tol *. (1. +. Float.abs a) in
      Array.for_all2 close lo1 lo2 && Array.for_all2 close hi1 hi2)

(* The prepared split never loses or duplicates mass: pos + neg
   recombines to the weight value, pos ≥ 0, neg ≤ 0, entrywise — with
   ±0.0 landing as +0.0 in both parts (strict comparisons). *)
let prepare_split_sound =
  QCheck.Test.make ~name:"Layer.prepare split: pos + neg = w, signs clean"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         QCheck.Gen.oneofl [ 1; 2; 3; 5; 9; 17 ] >>= fun m ->
         QCheck.Gen.oneofl [ 1; 2; 3; 5; 9; 17 ] >>= fun n ->
         mat_gen m n >>= fun w -> vec_gen m >>= fun b -> return (w, b)))
    (fun (w, b) ->
      let l = Cv_nn.Layer.make w b Cv_nn.Activation.Relu in
      let p = Cv_nn.Layer.prepare l in
      let ok = ref true in
      for i = 0 to Mat.rows w - 1 do
        for j = 0 to Mat.cols w - 1 do
          let x = Mat.get w i j in
          let pp = Mat.get p.Cv_nn.Layer.w_pos i j in
          let nn = Mat.get p.Cv_nn.Layer.w_neg i j in
          if not (pp >= 0. && nn <= 0. && pp +. nn = x) then ok := false;
          if x = 0. && Int64.bits_of_float pp <> 0L then ok := false;
          if Mat.get p.Cv_nn.Layer.wt j i <> x then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Parallel determinism: the row-blocked parallel gemm must be bitwise
   identical at any worker count (disjoint output rows, unchanged
   per-element order). Shapes exceed the parallel work threshold. *)

let test_parallel_determinism () =
  let rng = Cv_util.Rng.create 42 in
  let a = Mat.random ~rng 130 128 ~lo:(-1.) ~hi:1. in
  let b = Mat.random ~rng 128 129 ~lo:(-1.) ~hi:1. in
  let saved = Mat.parallel_domains () in
  Fun.protect
    ~finally:(fun () -> Mat.set_parallel_domains saved)
    (fun () ->
      Mat.set_parallel_domains 1;
      let c1 = Mat.matmul a b in
      Alcotest.(check bool) "seq = naive" true (bits_eq c1 (ref_matmul a b));
      List.iter
        (fun d ->
          Mat.set_parallel_domains d;
          let cd = Mat.matmul a b in
          Alcotest.(check bool)
            (Printf.sprintf "domains=%d bitwise equal" d)
            true (bits_eq c1 cd);
          let cexp = Mat.matmul ~domains:d a b in
          Alcotest.(check bool)
            (Printf.sprintf "~domains:%d bitwise equal" d)
            true (bits_eq c1 cexp))
        [ 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Workspace semantics.                                                *)

let test_workspace_reuse () =
  let ws = Workspace.create () in
  let m1 = Workspace.mat ws ~slot:0 ~rows:4 ~cols:5 in
  Mat.set m1 2 3 42.;
  let m2 = Workspace.mat ws ~slot:0 ~rows:4 ~cols:5 in
  Alcotest.(check bool) "same slot+shape: same buffer" true (m1 == m2);
  Alcotest.(check (float 0.)) "contents preserved" 42. (Mat.get m2 2 3);
  let other = Workspace.mat ws ~slot:1 ~rows:4 ~cols:5 in
  Alcotest.(check bool) "different slot: distinct" true (not (m1 == other));
  let wide = Workspace.mat ws ~slot:0 ~rows:4 ~cols:6 in
  Alcotest.(check bool) "different shape: distinct" true (not (m1 == wide));
  let m3 = Workspace.mat ws ~slot:0 ~rows:4 ~cols:5 in
  Alcotest.(check bool) "shape cached per slot" true (m1 == m3);
  let v1 = Workspace.vec ws ~slot:0 7 in
  v1.(0) <- 1.;
  let v2 = Workspace.vec ws ~slot:0 7 in
  Alcotest.(check bool) "vec reuse" true (v1 == v2);
  Workspace.reset ws;
  let m4 = Workspace.mat ws ~slot:0 ~rows:4 ~cols:5 in
  Alcotest.(check bool) "reset drops buffers" true (not (m1 == m4))

(* ------------------------------------------------------------------ *)
(* Symint restart shortcut: an affine step on a value fresh from
   [of_box] takes W itself instead of the sign-select product over
   identity sources. Prepending an identity layer forces the dense
   product (its output carries identity coefficients without the fresh
   flag), so both runs must agree bit for bit — or fail alike when a
   non-finite weight poisons the bounds. *)

module Symint = Cv_domains.Symint

let restart_dim_gen = QCheck.Gen.oneofl [ 1; 2; 3; 5; 9; 17 ]

(* Kernel-hostile weights ([Gen.entry_gen]: ±0.0, subnormals), sometimes
   an all-zero row of mixed signed zeros, sometimes one non-finite
   weight. *)
let restart_layer_gen ~in_dim ~out_dim =
  QCheck.Gen.(
    mat_gen out_dim in_dim >>= fun w ->
    vec_gen out_dim >>= fun bias ->
    oneofl
      Cv_nn.Activation.[ Relu; Leaky_relu 0.1; Identity; Sigmoid ]
    >>= fun act ->
    bool >>= fun zero_row ->
    frequency
      [ (4, return None);
        ( 1,
          triple (int_bound (out_dim - 1)) (int_bound (in_dim - 1))
            (oneofl [ Float.infinity; Float.neg_infinity; Float.nan ])
          >|= Option.some ) ]
    >|= fun bad ->
    if zero_row then
      for j = 0 to in_dim - 1 do
        Mat.set w 0 j (if j mod 2 = 0 then 0. else -0.)
      done;
    Option.iter (fun (i, j, x) -> Mat.set w i j x) bad;
    Cv_nn.Layer.make w bias act)

let restart_box_gen d =
  QCheck.Gen.(
    list_repeat d
      (pair (float_range (-2.) 2.)
         (frequency [ (1, return 0.); (4, float_range 0. 3.) ]))
    >|= fun l ->
    let lo = Array.of_list (List.map fst l) in
    Cv_interval.Box.of_bounds lo
      (Array.of_list (List.map (fun (x, r) -> x +. r) l)))

let identity_layer d =
  Cv_nn.Layer.make (Mat.identity d) (Array.make d 0.)
    Cv_nn.Activation.Identity

(* A box as an [n × 2] matrix of bounds, compared under [bits_eq]; an
   exception (NaN bounds) must be the same exception. *)
let box_outcome f =
  match f () with
  | b ->
    Ok
      (Mat.init (Cv_interval.Box.dim b) 2 (fun i j ->
           let iv = Cv_interval.Box.get b i in
           if j = 0 then Cv_interval.Interval.lo iv
           else Cv_interval.Interval.hi iv))
  | exception e -> Error (Printexc.to_string e)

let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> bits_eq x y
  | Error x, Error y -> String.equal x y
  | _ -> false

let symint_restart_bitwise =
  QCheck.Test.make ~name:"symint of_box shortcut = dense identity product"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         restart_dim_gen >>= fun d0 ->
         restart_dim_gen >>= fun d1 ->
         restart_dim_gen >>= fun d2 ->
         restart_layer_gen ~in_dim:d0 ~out_dim:d1 >>= fun l1 ->
         restart_layer_gen ~in_dim:d1 ~out_dim:d2 >>= fun l2 ->
         restart_box_gen d0 >|= fun b -> (b, l1, l2)))
    (fun (b, l1, l2) ->
      let d0 = Cv_interval.Box.dim b in
      let id = identity_layer d0 in
      let one_layer =
        same_outcome
          (box_outcome (fun () ->
               Symint.to_box (Symint.apply_layer l1 (Symint.of_box b))))
          (box_outcome (fun () ->
               Symint.to_box
                 (Symint.apply_layer l1
                    (Symint.apply_layer id (Symint.of_box b)))))
      in
      (* Carried through two layers: only the first step may take the
         shortcut, the second must run the product over the first
         step's coefficients. *)
      let carried =
        let reach layers =
          box_outcome (fun () ->
              Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint
                (Cv_nn.Network.make layers) b)
        in
        same_outcome (reach [| l1; l2 |]) (reach [| id; l1; l2 |])
      in
      one_layer && carried)

(* ------------------------------------------------------------------ *)
(* Flat zonotope store vs the historical row-array semantics.          *)

(* Minimal row-array zonotope (the pre-PR representation), enough to
   cross an affine + ReLU layer. *)
let rows_of_box b =
  let n = Cv_interval.Box.dim b in
  let center =
    Array.init n (fun i -> Cv_interval.Interval.center (Cv_interval.Box.get b i))
  in
  let gens = ref [] in
  for i = n - 1 downto 0 do
    let r = Cv_interval.Interval.radius (Cv_interval.Box.get b i) in
    if r > 0. then begin
      let g = Array.make n 0. in
      g.(i) <- r;
      gens := g :: !gens
    end
  done;
  (center, Array.of_list !gens)

let rows_to_box (center, gens) =
  Array.init (Array.length center) (fun i ->
      let d =
        Array.fold_left (fun acc g -> acc +. Float.abs g.(i)) 0. gens
      in
      Cv_interval.Interval.make (center.(i) -. d) (center.(i) +. d))

let rows_affine w bias (center, gens) =
  ( Mat.matvec_add w center bias,
    Array.map (fun g -> Mat.matvec w g) gens )

let rows_relu (center, gens) =
  let n = Array.length center in
  let box = rows_to_box (center, gens) in
  let center = Array.copy center in
  let gens = Array.map Array.copy gens in
  let fresh = ref [] in
  for i = 0 to n - 1 do
    let iv = box.(i) in
    let l = Cv_interval.Interval.lo iv and u = Cv_interval.Interval.hi iv in
    if u <= 0. then begin
      center.(i) <- 0.;
      Array.iter (fun g -> g.(i) <- 0.) gens
    end
    else if l < 0. then begin
      let lambda = u /. (u -. l) in
      let mu = -.lambda *. l /. 2. in
      center.(i) <- (lambda *. center.(i)) +. mu;
      Array.iter (fun g -> g.(i) <- lambda *. g.(i)) gens;
      let g = Array.make n 0. in
      g.(i) <- mu;
      fresh := g :: !fresh
    end
  done;
  (center, Array.append gens (Array.of_list !fresh))

let zonotope_flat_matches_rows =
  QCheck.Test.make ~name:"flat zonotope = row-array reference through layers"
    ~count:80
    (QCheck.make
       QCheck.Gen.(
         QCheck.Gen.oneofl [ 1; 2; 3; 5; 9 ] >>= fun d_in ->
         QCheck.Gen.oneofl [ 1; 2; 3; 5; 9 ] >>= fun d_mid ->
         QCheck.Gen.oneofl [ 1; 2; 3; 5 ] >>= fun d_out ->
         QCheck.Gen.int_range 0 10000 >>= fun seed ->
         return (d_in, d_mid, d_out, seed)))
    (fun (d_in, d_mid, d_out, seed) ->
      let rng = Cv_util.Rng.create seed in
      let net =
        Cv_nn.Network.random ~rng
          ~dims:[ d_in; d_mid; d_out ]
          ~act:Cv_nn.Activation.Relu ()
      in
      let din = Cv_interval.Box.uniform d_in ~lo:(-1.) ~hi:1. in
      let flat =
        Cv_domains.Zonotope.to_box
          (Array.fold_left
             (fun z l -> Cv_domains.Zonotope.apply_layer l z)
             (Cv_domains.Zonotope.of_box din)
             (Cv_nn.Network.layers net))
      in
      let reference =
        rows_to_box
          (Array.fold_left
             (fun z (l : Cv_nn.Layer.t) ->
               let pre =
                 rows_affine l.Cv_nn.Layer.weights l.Cv_nn.Layer.bias z
               in
               match l.Cv_nn.Layer.act with
               | Cv_nn.Activation.Relu -> rows_relu pre
               | _ -> pre)
             (rows_of_box din)
             (Cv_nn.Network.layers net))
      in
      let ok =
        Array.for_all2
          (fun a b ->
            Cv_interval.Interval.lo a = Cv_interval.Interval.lo b
            && Cv_interval.Interval.hi a = Cv_interval.Interval.hi b)
          flat reference
      in
      if not ok then begin
        Printf.eprintf "MISMATCH dims=%d,%d,%d seed=%d\n" d_in d_mid d_out seed;
        Array.iteri
          (fun i a ->
            let b = reference.(i) in
            Printf.eprintf "  [%d] flat [%.17g, %.17g] ref [%.17g, %.17g]\n" i
              (Cv_interval.Interval.lo a) (Cv_interval.Interval.hi a)
              (Cv_interval.Interval.lo b) (Cv_interval.Interval.hi b))
          flat
      end;
      ok)

(* ------------------------------------------------------------------ *)
(* Steady-state allocation: the workspace-backed kernel loop must not
   allocate once buffers exist, and a whole box propagation must charge
   a flat per-call amount to [kernel.bytes_alloc]. *)

let test_kernel_loop_alloc_free () =
  let rng = Cv_util.Rng.create 7 in
  (* Small enough to stay under the metrics-timing work threshold, so
     the loop body is pure kernel. *)
  let a = Mat.random ~rng 16 16 ~lo:(-1.) ~hi:1. in
  let b = Mat.random ~rng 16 16 ~lo:(-1.) ~hi:1. in
  let ws = Workspace.create () in
  let iter () =
    let dst = Workspace.mat ws ~slot:0 ~rows:16 ~cols:16 in
    Mat.matmul_into ~dst a b
  in
  for _ = 1 to 10 do
    iter ()
  done;
  let b0 = Gc.allocated_bytes () in
  for _ = 1 to 1000 do
    iter ()
  done;
  let per_iter = (Gc.allocated_bytes () -. b0) /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "steady state allocates ~0 B/iter (got %.1f)" per_iter)
    true (per_iter < 16.)

let test_bytes_alloc_gauge_flat () =
  let rng = Cv_util.Rng.create 9 in
  let net =
    Cv_nn.Network.random ~rng ~dims:[ 8; 32; 32; 1 ]
      ~act:Cv_nn.Activation.Relu ()
  in
  let din = Cv_interval.Box.uniform 8 ~lo:(-1.) ~hi:1. in
  let gauge () = Cv_util.Metrics.value (Cv_util.Metrics.counter "kernel.bytes_alloc") in
  let run () =
    ignore (Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Box net din)
  in
  (* Warm up: prepared memo + workspace buffers. *)
  run ();
  run ();
  let g0 = gauge () in
  run ();
  let first = gauge () - g0 in
  let g1 = gauge () in
  for _ = 1 to 20 do
    run ()
  done;
  let per_call = (gauge () - g1) / 20 in
  Alcotest.(check bool)
    (Printf.sprintf
       "per-call gauge flat after warmup (first %d, steady %d)" first per_call)
    true
    (per_call <= first + 256 && first < 65536)

(* ------------------------------------------------------------------ *)
(* Satellite regressions: Mat.col single-pass stride, Mat.init index
   arithmetic. *)

let test_col_and_init () =
  let m = Mat.init 3 4 (fun i j -> float_of_int ((10 * i) + j)) in
  Alcotest.(check (Alcotest.array (Alcotest.float 0.)))
    "col 2" [| 2.; 12.; 22. |] (Mat.col m 2);
  Alcotest.(check (Alcotest.array (Alcotest.float 0.)))
    "col 0" [| 0.; 10.; 20. |] (Mat.col m 0);
  Alcotest.check_raises "col out of range"
    (Invalid_argument "Mat.col: column out of range") (fun () ->
      ignore (Mat.col m 4));
  (* init must hit every (i, j) exactly once, row-major. *)
  let n = ref 0 in
  let m2 =
    Mat.init 5 3 (fun i j ->
        incr n;
        float_of_int ((100 * i) + j))
  in
  Alcotest.(check int) "init calls" 15 !n;
  Alcotest.(check (float 0.)) "init layout" 402. (Mat.get m2 4 2)

let () =
  Alcotest.run "cv_kernels"
    [ ( "blocked-kernels",
        [ QCheck_alcotest.to_alcotest matmul_matches_naive;
          QCheck_alcotest.to_alcotest matmul_into_workspace;
          QCheck_alcotest.to_alcotest matvec_matches_naive;
          QCheck_alcotest.to_alcotest transb_matches_matvec_rows;
          QCheck_alcotest.to_alcotest gemm_select_matches_naive;
          QCheck_alcotest.to_alcotest gemv_select_matches_naive;
          QCheck_alcotest.to_alcotest posneg_matches_interval;
          QCheck_alcotest.to_alcotest prepare_split_sound ] );
      ( "parallel",
        [ Alcotest.test_case "bitwise determinism at 1/2/4 domains" `Quick
            test_parallel_determinism ] );
      ( "workspace",
        [ Alcotest.test_case "slot reuse and reset" `Quick test_workspace_reuse;
          Alcotest.test_case "steady-state kernel loop alloc-free" `Quick
            test_kernel_loop_alloc_free;
          Alcotest.test_case "kernel.bytes_alloc flat per call" `Quick
            test_bytes_alloc_gauge_flat ] );
      ( "symint-restart",
        [ QCheck_alcotest.to_alcotest symint_restart_bitwise ] );
      ( "zonotope-flat",
        [ QCheck_alcotest.to_alcotest zonotope_flat_matches_rows ] );
      ( "satellites",
        [ Alcotest.test_case "Mat.col strided / Mat.init index" `Quick
            test_col_and_init ] ) ]
