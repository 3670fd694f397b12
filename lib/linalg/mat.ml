(** Dense row-major float matrices.

    Backing store is a flat [float array] with explicit [rows]/[cols];
    all the layer transformers, the Lipschitz estimators and the LP
    tableau build on this module.

    The arithmetic kernels ([matmul], [matvec], the fused [gemv]/[gemm]
    variants) are cache-blocked over the reduction dimension and use
    unchecked array accesses after a single up-front shape check.
    Blocking never changes the per-element accumulation order — every
    output entry is still the [k]-ascending sum of the naive triple
    loop, so blocked, sequential and row-parallel runs are all bitwise
    identical. Kernel effort is accounted under [kernel.gemm.seconds],
    [kernel.gemv.seconds] and [kernel.posneg.seconds]; timing only
    engages above a work threshold so micro-kernels (tiny example nets)
    do not pay clock reads. *)

type t = { rows : int; cols : int; data : float array }

(** [create rows cols x] is a [rows × cols] matrix filled with [x]. *)
let create rows cols x = { rows; cols; data = Array.make (rows * cols) x }

(** [zeros rows cols] is the zero matrix. *)
let zeros rows cols = create rows cols 0.

(** [init rows cols f] builds the matrix with entries [f i j] — one
    running flat index, no per-element division. *)
let init rows cols f =
  let data = Array.make (rows * cols) 0. in
  let k = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      Array.unsafe_set data !k (f i j);
      incr k
    done
  done;
  { rows; cols; data }

(** [identity n] is the [n × n] identity. *)
let identity n =
  let m = zeros n n in
  for i = 0 to n - 1 do
    Array.unsafe_set m.data ((i * n) + i) 1.
  done;
  m

(** [of_array ~rows ~cols data] wraps a row-major backing array without
    copying. *)
let of_array ~rows ~cols data =
  if Array.length data <> rows * cols then
    invalid_arg "Mat.of_array: data length mismatch";
  { rows; cols; data }

(** [rows m] is the number of rows. *)
let rows m = m.rows

(** [cols m] is the number of columns. *)
let cols m = m.cols

(** [get m i j] reads entry [(i, j)]. *)
let get m i j = m.data.((i * m.cols) + j)

(** [set m i j x] writes entry [(i, j)] in place. *)
let set m i j x = m.data.((i * m.cols) + j) <- x

let unsafe_get m i j = Array.unsafe_get m.data ((i * m.cols) + j)

let unsafe_set m i j x = Array.unsafe_set m.data ((i * m.cols) + j) x

let unsafe_data m = m.data

(** [copy m] is a deep copy. *)
let copy m = { m with data = Array.copy m.data }

(** [row m i] extracts row [i] as a fresh vector. *)
let row m i = Array.sub m.data (i * m.cols) m.cols

(** [col m j] extracts column [j] as a fresh vector — one strided pass,
    no per-element index multiplication. *)
let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Mat.col: column out of range";
  let r = Array.make m.rows 0. in
  let idx = ref j in
  for i = 0 to m.rows - 1 do
    Array.unsafe_set r i (Array.unsafe_get m.data !idx);
    idx := !idx + m.cols
  done;
  r

(** [of_rows rows] builds a matrix from a non-empty list of equal-length
    row vectors. *)
let of_rows = function
  | [] -> invalid_arg "Mat.of_rows: empty"
  | first :: _ as rows_list ->
    let cols = Array.length first in
    let rows = List.length rows_list in
    let m = zeros rows cols in
    List.iteri
      (fun i r ->
        if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows";
        Array.blit r 0 m.data (i * cols) cols)
      rows_list;
    m

(** [to_rows m] is the list of row vectors. *)
let to_rows m = List.init m.rows (row m)

(** [transpose m] is the transposed matrix. *)
let transpose m = init m.cols m.rows (fun i j -> get m j i)

(* ------------------------------------------------------------------ *)
(* Kernel instrumentation.                                            *)

let t_gemm = Cv_util.Metrics.timer "kernel.gemm.seconds"
let t_gemv = Cv_util.Metrics.timer "kernel.gemv.seconds"
let t_posneg = Cv_util.Metrics.timer "kernel.posneg.seconds"

(* Flop threshold below which kernels skip the clock reads: a 3×3
   multiply must not pay two clock_gettime calls. *)
let timed_work = 1 lsl 14

(* ------------------------------------------------------------------ *)
(* Matrix-vector kernels.                                             *)

(** [matvec_into ~dst m v] writes [m v] into [dst]. *)
let matvec_into ~dst m v =
  if Array.length v <> m.cols then
    invalid_arg
      (Printf.sprintf "Mat.matvec: %dx%d with vector of dim %d" m.rows m.cols
         (Array.length v));
  if Array.length dst <> m.rows then invalid_arg "Mat.matvec_into: dst dim";
  if dst == v then invalid_arg "Mat.matvec_into: dst aliases v";
  let work = m.rows * m.cols in
  let t0 = if work >= timed_work then Cv_util.Clock.now () else 0. in
  let md = m.data in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let acc = ref 0. in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (Array.unsafe_get md (base + j) *. Array.unsafe_get v j)
    done;
    Array.unsafe_set dst i !acc
  done;
  if work >= timed_work then
    Cv_util.Metrics.add_seconds t_gemv (Cv_util.Clock.now () -. t0)

(** [matvec m v] is the matrix-vector product [m v]. *)
let matvec m v =
  let dst = Array.make m.rows 0. in
  matvec_into ~dst m v;
  dst

(** [matvec_add m v b] is [m v + b], the affine map used by NN layers. *)
let matvec_add m v b =
  let r = matvec m v in
  if Array.length b <> m.rows then invalid_arg "Mat.matvec_add: bias dim";
  for i = 0 to m.rows - 1 do
    r.(i) <- r.(i) +. b.(i)
  done;
  r

(* ------------------------------------------------------------------ *)
(* Blocked gemm.                                                      *)

(* Reduction-dimension block: keeps a [kblock × cols b] panel of [b]
   plus one accumulator row of the result hot while streaming [a]. *)
let kblock = 64

(* Multiply rows [r0, r1) of [a] into [cd] (pre-zeroed): blocked i-k-j
   with the k-ascending per-element accumulation of the naive loop,
   skipping zero [a] entries (preserves sparsity short-cuts and keeps
   0 · ±inf from manufacturing NaNs, exactly like the historical
   kernel). *)
let matmul_rows ~ad ~bd ~cd ~acols ~bcols r0 r1 =
  for k0 = 0 to (acols - 1) / kblock do
    let klo = k0 * kblock in
    let khi = min (acols - 1) (klo + kblock - 1) in
    for i = r0 to r1 - 1 do
      let abase = i * acols in
      let cbase = i * bcols in
      for k = klo to khi do
        let aik = Array.unsafe_get ad (abase + k) in
        if aik <> 0. then begin
          let bbase = k * bcols in
          for j = 0 to bcols - 1 do
            Array.unsafe_set cd (cbase + j)
              (Array.unsafe_get cd (cbase + j)
              +. (aik *. Array.unsafe_get bd (bbase + j)))
          done
        end
      done
    done
  done

(* Opt-in default worker-domain count for matmul; 1 = sequential. *)
let parallel_domains_ref =
  ref
    (match Sys.getenv_opt "CONTIVER_KERNEL_DOMAINS" with
    | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
    | None -> 1)

let parallel_domains () = !parallel_domains_ref
let set_parallel_domains n = parallel_domains_ref := max 1 n

(* Don't spin up domains for products cheaper than ~1 Mflop. *)
let parallel_min_work = 1 lsl 20

let matmul_dispatch ~domains a b dst =
  Array.fill dst.data 0 (dst.rows * dst.cols) 0.;
  let work = a.rows * a.cols * b.cols in
  let t0 = if work >= timed_work then Cv_util.Clock.now () else 0. in
  let ad = a.data and bd = b.data and cd = dst.data in
  let d = min domains a.rows in
  if d > 1 && work >= parallel_min_work then begin
    (* Disjoint contiguous row blocks per task: no two tasks touch the
       same output entry, and each entry is produced by the same
       sequential loop — deterministic by construction. *)
    let chunk = (a.rows + d - 1) / d in
    let ranges =
      Array.init d (fun i -> (i * chunk, min a.rows ((i + 1) * chunk)))
    in
    ignore
      (Cv_util.Parallel.map ~domains:d
         (fun (r0, r1) ->
           matmul_rows ~ad ~bd ~cd ~acols:a.cols ~bcols:b.cols r0 r1)
         ranges)
  end
  else matmul_rows ~ad ~bd ~cd ~acols:a.cols ~bcols:b.cols 0 a.rows;
  if work >= timed_work then
    Cv_util.Metrics.add_seconds t_gemm (Cv_util.Clock.now () -. t0)

(** [matmul ?domains a b] is the matrix product [a b]; bitwise identical
    at every [domains] setting. *)
let matmul ?domains a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.matmul: %dx%d with %dx%d" a.rows a.cols b.rows b.cols);
  let dst = zeros a.rows b.cols in
  let domains =
    match domains with Some d -> max 1 d | None -> !parallel_domains_ref
  in
  matmul_dispatch ~domains a b dst;
  dst

(** [matmul_into ?domains ~dst a b] is {!matmul} into a caller-owned
    buffer. *)
let matmul_into ?domains ~dst a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.matmul: %dx%d with %dx%d" a.rows a.cols b.rows b.cols);
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Mat.matmul_into: dst shape";
  if dst.data == a.data || dst.data == b.data then
    invalid_arg "Mat.matmul_into: dst aliases an operand";
  let domains =
    match domains with Some d -> max 1 d | None -> !parallel_domains_ref
  in
  matmul_dispatch ~domains a b dst

(* Row block for the transposed-B kernel: one row of [b] stays hot
   across a block of [a] rows. *)
let iblock = 8

let matmul_transb_core a b dst =
  let k = a.cols and n = b.rows in
  let ad = a.data and bd = b.data and cd = dst.data in
  let work = a.rows * k * n in
  let t0 = if work >= timed_work then Cv_util.Clock.now () else 0. in
  let i0 = ref 0 in
  while !i0 < a.rows do
    let ihi = min a.rows (!i0 + iblock) in
    for i = !i0 to ihi - 1 do
      let abase = i * k in
      let cbase = i * n in
      (* Four output columns at a time: each accumulator still sums its
         dot product in ascending t (bitwise identical to one-at-a-time)
         but the four chains are independent, so the FP-add latency
         overlaps and each [a] row load feeds four columns. *)
      let j = ref 0 in
      while !j + 3 < n do
        let b0 = !j * k and b1 = (!j + 1) * k in
        let b2 = (!j + 2) * k and b3 = (!j + 3) * k in
        let acc0 = ref 0. and acc1 = ref 0. in
        let acc2 = ref 0. and acc3 = ref 0. in
        for t = 0 to k - 1 do
          let av = Array.unsafe_get ad (abase + t) in
          acc0 := !acc0 +. (av *. Array.unsafe_get bd (b0 + t));
          acc1 := !acc1 +. (av *. Array.unsafe_get bd (b1 + t));
          acc2 := !acc2 +. (av *. Array.unsafe_get bd (b2 + t));
          acc3 := !acc3 +. (av *. Array.unsafe_get bd (b3 + t))
        done;
        Array.unsafe_set cd (cbase + !j) !acc0;
        Array.unsafe_set cd (cbase + !j + 1) !acc1;
        Array.unsafe_set cd (cbase + !j + 2) !acc2;
        Array.unsafe_set cd (cbase + !j + 3) !acc3;
        j := !j + 4
      done;
      while !j < n do
        let bbase = !j * k in
        let acc = ref 0. in
        for t = 0 to k - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get ad (abase + t) *. Array.unsafe_get bd (bbase + t))
        done;
        Array.unsafe_set cd (cbase + !j) !acc;
        incr j
      done
    done;
    i0 := ihi
  done;
  if work >= timed_work then
    Cv_util.Metrics.add_seconds t_gemm (Cv_util.Clock.now () -. t0)

(** [matmul_transb_into ~dst a b] writes [a bᵀ] into [dst]. *)
let matmul_transb_into ~dst a b =
  if a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.matmul_transb: %dx%d with %dx%d" a.rows a.cols b.rows
         b.cols);
  if dst.rows <> a.rows || dst.cols <> b.rows then
    invalid_arg "Mat.matmul_transb_into: dst shape";
  if dst.data == a.data || dst.data == b.data then
    invalid_arg "Mat.matmul_transb_into: dst aliases an operand";
  matmul_transb_core a b dst

(** [matmul_transb a b] is [a bᵀ] (row-dot-row; see mli). *)
let matmul_transb a b =
  if a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.matmul_transb: %dx%d with %dx%d" a.rows a.cols b.rows
         b.cols);
  let dst = zeros a.rows b.rows in
  matmul_transb_core a b dst;
  dst

(* ------------------------------------------------------------------ *)
(* Fused sign-split kernels.                                          *)

(** [gemv_interval_into w ~bias ~lo ~hi ~dst_lo ~dst_hi] — exact
    interval affine image, branching on the weight sign per entry
    ([>= 0.] keeps the historical tie behaviour at zero). Safe for
    infinite bounds. *)
let gemv_interval_into w ~bias ~lo ~hi ~dst_lo ~dst_hi =
  if Array.length lo <> w.cols || Array.length hi <> w.cols then
    invalid_arg "Mat.gemv_interval_into: bound dims";
  if
    Array.length bias <> w.rows
    || Array.length dst_lo <> w.rows
    || Array.length dst_hi <> w.rows
  then invalid_arg "Mat.gemv_interval_into: row dims";
  let work = w.rows * w.cols in
  let t0 = if work >= timed_work then Cv_util.Clock.now () else 0. in
  let wd = w.data in
  for i = 0 to w.rows - 1 do
    let base = i * w.cols in
    let b = Array.unsafe_get bias i in
    let al = ref b and ah = ref b in
    for j = 0 to w.cols - 1 do
      let wij = Array.unsafe_get wd (base + j) in
      if wij >= 0. then begin
        al := !al +. (wij *. Array.unsafe_get lo j);
        ah := !ah +. (wij *. Array.unsafe_get hi j)
      end
      else begin
        al := !al +. (wij *. Array.unsafe_get hi j);
        ah := !ah +. (wij *. Array.unsafe_get lo j)
      end
    done;
    Array.unsafe_set dst_lo i !al;
    Array.unsafe_set dst_hi i !ah
  done;
  if work >= timed_work then
    Cv_util.Metrics.add_seconds t_gemv (Cv_util.Clock.now () -. t0)

(** [gemv_posneg ~pos ~neg ~bias ~lo ~hi ~dst_lo ~dst_hi] — branchless
    interval affine image over a prepared sign split (see mli; requires
    finite bounds). *)
let gemv_posneg ~pos ~neg ~bias ~lo ~hi ~dst_lo ~dst_hi =
  if pos.rows <> neg.rows || pos.cols <> neg.cols then
    invalid_arg "Mat.gemv_posneg: split shapes differ";
  if Array.length lo <> pos.cols || Array.length hi <> pos.cols then
    invalid_arg "Mat.gemv_posneg: bound dims";
  if
    Array.length bias <> pos.rows
    || Array.length dst_lo <> pos.rows
    || Array.length dst_hi <> pos.rows
  then invalid_arg "Mat.gemv_posneg: row dims";
  let work = pos.rows * pos.cols in
  let t0 = if work >= timed_work then Cv_util.Clock.now () else 0. in
  let pd = pos.data and nd = neg.data in
  for i = 0 to pos.rows - 1 do
    let base = i * pos.cols in
    let b = Array.unsafe_get bias i in
    let al = ref b and ah = ref b in
    for j = 0 to pos.cols - 1 do
      let p = Array.unsafe_get pd (base + j) in
      let n = Array.unsafe_get nd (base + j) in
      let l = Array.unsafe_get lo j in
      let h = Array.unsafe_get hi j in
      al := !al +. (p *. l) +. (n *. h);
      ah := !ah +. (p *. h) +. (n *. l)
    done;
    Array.unsafe_set dst_lo i !al;
    Array.unsafe_set dst_hi i !ah
  done;
  if work >= timed_work then
    Cv_util.Metrics.add_seconds t_posneg (Cv_util.Clock.now () -. t0)

(** [gemm_select_into ~dst a ~pos_src ~neg_src] — fused
    [dst = a⁺ pos_src + a⁻ neg_src] in one pass over [a] (see mli).
    Accumulation per output entry runs over [k] ascending, skipping
    zero entries of [a]. *)
let gemm_select_into ~dst a ~pos_src ~neg_src =
  if pos_src.rows <> neg_src.rows || pos_src.cols <> neg_src.cols then
    invalid_arg "Mat.gemm_select_into: source shapes differ";
  if a.cols <> pos_src.rows then
    invalid_arg
      (Printf.sprintf "Mat.gemm_select_into: %dx%d with %dx%d" a.rows a.cols
         pos_src.rows pos_src.cols);
  if dst.rows <> a.rows || dst.cols <> pos_src.cols then
    invalid_arg "Mat.gemm_select_into: dst shape";
  if dst.data == a.data || dst.data == pos_src.data || dst.data == neg_src.data
  then invalid_arg "Mat.gemm_select_into: dst aliases an operand";
  let work = a.rows * a.cols * pos_src.cols in
  let t0 = if work >= timed_work then Cv_util.Clock.now () else 0. in
  Array.fill dst.data 0 (dst.rows * dst.cols) 0.;
  let ad = a.data and pd = pos_src.data and nd = neg_src.data and cd = dst.data in
  let acols = a.cols and bcols = pos_src.cols in
  for k0 = 0 to (acols - 1) / kblock do
    let klo = k0 * kblock in
    let khi = min (acols - 1) (klo + kblock - 1) in
    for i = 0 to a.rows - 1 do
      let abase = i * acols in
      let cbase = i * bcols in
      for k = klo to khi do
        let aik = Array.unsafe_get ad (abase + k) in
        if aik <> 0. then begin
          let sd = if aik > 0. then pd else nd in
          let bbase = k * bcols in
          for j = 0 to bcols - 1 do
            Array.unsafe_set cd (cbase + j)
              (Array.unsafe_get cd (cbase + j)
              +. (aik *. Array.unsafe_get sd (bbase + j)))
          done
        end
      done
    done
  done;
  if work >= timed_work then
    Cv_util.Metrics.add_seconds t_posneg (Cv_util.Clock.now () -. t0)

(** [gemv_select_acc a ~pos ~neg ~acc] — constant-term companion of
    {!gemm_select_into} (see mli). *)
let gemv_select_acc a ~pos ~neg ~acc =
  if Array.length pos <> a.cols || Array.length neg <> a.cols then
    invalid_arg "Mat.gemv_select_acc: source dims";
  if Array.length acc <> a.rows then invalid_arg "Mat.gemv_select_acc: acc dim";
  let work = a.rows * a.cols in
  let t0 = if work >= timed_work then Cv_util.Clock.now () else 0. in
  let ad = a.data in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    let s = ref (Array.unsafe_get acc i) in
    for j = 0 to a.cols - 1 do
      let aij = Array.unsafe_get ad (base + j) in
      if aij > 0. then s := !s +. (aij *. Array.unsafe_get pos j)
      else if aij < 0. then s := !s +. (aij *. Array.unsafe_get neg j)
    done;
    Array.unsafe_set acc i !s
  done;
  if work >= timed_work then
    Cv_util.Metrics.add_seconds t_posneg (Cv_util.Clock.now () -. t0)

(* ------------------------------------------------------------------ *)

(** [add a b] is the entrywise sum. *)
let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.add: shape";
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

(** [sub a b] is the entrywise difference. *)
let sub a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.sub: shape";
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

(** [scale c m] multiplies every entry by [c]. *)
let scale c m = { m with data = Array.map (fun x -> c *. x) m.data }

(** [map f m] applies [f] entrywise. *)
let map f m = { m with data = Array.map f m.data }

(** [max_abs m] is the largest absolute entry. *)
let max_abs m = Cv_util.Float_utils.max_abs m.data

(** [norm_inf m] is the operator ∞-norm: max row absolute sum. This is a
    valid Lipschitz constant of [x ↦ m x] in the ∞-norm. *)
let norm_inf m =
  let best = ref 0. in
  for i = 0 to m.rows - 1 do
    let s = ref 0. in
    for j = 0 to m.cols - 1 do
      s := !s +. Float.abs m.data.((i * m.cols) + j)
    done;
    best := Float.max !best !s
  done;
  !best

(** [norm1 m] is the operator 1-norm: max column absolute sum. *)
let norm1 m =
  let best = ref 0. in
  for j = 0 to m.cols - 1 do
    let s = ref 0. in
    for i = 0 to m.rows - 1 do
      s := !s +. Float.abs m.data.((i * m.cols) + j)
    done;
    best := Float.max !best !s
  done;
  !best

(** [frobenius m] is the Frobenius norm (an upper bound on the spectral
    norm). *)
let frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.data)

(** [spectral_norm ?iters ?rng m] estimates the operator 2-norm (largest
    singular value) by power iteration on [mᵀm]. The estimate converges
    from below; callers needing a sound upper bound should prefer
    {!frobenius} or [sqrt (norm1 m *. norm_inf m)]. *)
let spectral_norm ?(iters = 100) ?rng m =
  if m.rows = 0 || m.cols = 0 then 0.
  else begin
    let rng = match rng with Some r -> r | None -> Cv_util.Rng.create 7 in
    let mt = transpose m in
    let v = ref (Cv_util.Rng.uniform_array rng m.cols ~lo:(-1.) ~hi:1.) in
    (try
       for _ = 1 to iters do
         let w = matvec mt (matvec m !v) in
         let n = Vec.norm2 w in
         if n < 1e-300 then raise Exit;
         v := Vec.scale (1. /. n) w
       done
     with Exit -> ());
    (* Rayleigh quotient at the converged vector. *)
    let mv = matvec m !v in
    let nv = Vec.norm2 !v in
    if nv < 1e-300 then 0. else Vec.norm2 mv /. nv
  end

(** [sqrt_norm1_norminf m] is [sqrt (‖m‖₁ ‖m‖∞)], a cheap sound upper
    bound on the spectral norm. *)
let sqrt_norm1_norminf m = sqrt (norm1 m *. norm_inf m)

(** [approx_eq ?tol a b] is entrywise approximate equality of same-shape
    matrices. *)
let approx_eq ?tol a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Cv_util.Float_utils.approx_eq ?tol x y) a.data b.data

(** [random ?rng rows cols ~lo ~hi] draws entries uniformly. *)
let random ?rng rows cols ~lo ~hi =
  let rng = match rng with Some r -> r | None -> Cv_util.Rng.create 11 in
  init rows cols (fun _ _ -> Cv_util.Rng.float rng ~lo ~hi)

(** [xavier ?rng rows cols] draws entries from the Glorot-uniform
    distribution for a layer with [cols] inputs and [rows] outputs. *)
let xavier ?rng rows cols =
  let rng = match rng with Some r -> r | None -> Cv_util.Rng.create 13 in
  let limit = sqrt (6. /. float_of_int (rows + cols)) in
  init rows cols (fun _ _ -> Cv_util.Rng.float rng ~lo:(-.limit) ~hi:limit)

(** [pp ppf m] prints rows one per line. *)
let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "%a@," Vec.pp (row m i)
  done;
  Format.fprintf ppf "@]"

(** [to_json m] encodes shape and entries. *)
let to_json m =
  Cv_util.Json.Obj
    [ ("rows", Cv_util.Json.of_int m.rows);
      ("cols", Cv_util.Json.of_int m.cols);
      ("data", Cv_util.Json.of_float_array m.data) ]

(** [of_json j] decodes a matrix written by {!to_json}. *)
let of_json j =
  let open Cv_util.Json in
  let rows = to_int (member "rows" j) in
  let cols = to_int (member "cols" j) in
  let data = float_array (member "data" j) in
  if Array.length data <> rows * cols then
    raise (Error "Mat.of_json: data length mismatch");
  { rows; cols; data }
