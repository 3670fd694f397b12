(* Tests for Cv_lp: the simplex solver and the LP model builder. *)

let check_float = Alcotest.(check (float 1e-6))

let solve_max p terms = Cv_lp.Lp.maximize_linear p terms

(* ------------------------------------------------------------------ *)
(* Basic LPs                                                           *)
(* ------------------------------------------------------------------ *)

let test_textbook_max () =
  (* max x+y s.t. x+2y<=4, 3x+y<=6, x,y>=0: optimum 2.8 at (1.6, 1.2) *)
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:0. () in
  let y = Cv_lp.Lp.add_var p ~lo:0. () in
  Cv_lp.Lp.add_constraint p [ (1., x); (2., y) ] Cv_lp.Lp.Le 4.;
  Cv_lp.Lp.add_constraint p [ (3., x); (1., y) ] Cv_lp.Lp.Le 6.;
  match solve_max p [ (1., x); (1., y) ] with
  | Cv_lp.Lp.Optimal s ->
    check_float "objective" 2.8 s.Cv_lp.Lp.objective;
    check_float "x" 1.6 s.Cv_lp.Lp.values.(x);
    check_float "y" 1.2 s.Cv_lp.Lp.values.(y)
  | _ -> Alcotest.fail "expected optimal"

let test_minimize () =
  (* min 2x + 3y s.t. x + y >= 4, x,y >= 0: optimum 8 at (4, 0) *)
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:0. () in
  let y = Cv_lp.Lp.add_var p ~lo:0. () in
  Cv_lp.Lp.add_constraint p [ (1., x); (1., y) ] Cv_lp.Lp.Ge 4.;
  match Cv_lp.Lp.minimize_linear p [ (2., x); (3., y) ] with
  | Cv_lp.Lp.Optimal s ->
    check_float "objective" 8. s.Cv_lp.Lp.objective;
    check_float "x" 4. s.Cv_lp.Lp.values.(x)
  | _ -> Alcotest.fail "expected optimal"

let test_equality_constraint () =
  (* max x s.t. x + y = 3, y >= 1, x >= 0: optimum 2 *)
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:0. () in
  let y = Cv_lp.Lp.add_var p ~lo:1. () in
  Cv_lp.Lp.add_constraint p [ (1., x); (1., y) ] Cv_lp.Lp.Eq 3.;
  match solve_max p [ (1., x) ] with
  | Cv_lp.Lp.Optimal s -> check_float "objective" 2. s.Cv_lp.Lp.objective
  | _ -> Alcotest.fail "expected optimal"

let test_infeasible () =
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:0. ~hi:1. () in
  Cv_lp.Lp.add_constraint p [ (1., x) ] Cv_lp.Lp.Ge 2.;
  match solve_max p [ (1., x) ] with
  | Cv_lp.Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:0. () in
  match solve_max p [ (1., x) ] with
  | Cv_lp.Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

(* ------------------------------------------------------------------ *)
(* Bounds handling                                                     *)
(* ------------------------------------------------------------------ *)

let test_negative_lower_bounds () =
  (* max x + y, x ∈ [-3, -1], y ∈ [-2, 5]: optimum -1 + 5 = 4 *)
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:(-3.) ~hi:(-1.) () in
  let y = Cv_lp.Lp.add_var p ~lo:(-2.) ~hi:5. () in
  match solve_max p [ (1., x); (1., y) ] with
  | Cv_lp.Lp.Optimal s ->
    check_float "objective" 4. s.Cv_lp.Lp.objective;
    check_float "x" (-1.) s.Cv_lp.Lp.values.(x)
  | _ -> Alcotest.fail "expected optimal"

let test_free_variable () =
  (* min x s.t. x >= -7 via constraint (x itself free): optimum -7 *)
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p () in
  Cv_lp.Lp.add_constraint p [ (1., x) ] Cv_lp.Lp.Ge (-7.);
  match Cv_lp.Lp.minimize_linear p [ (1., x) ] with
  | Cv_lp.Lp.Optimal s -> check_float "objective" (-7.) s.Cv_lp.Lp.objective
  | _ -> Alcotest.fail "expected optimal"

let test_upper_bound_only_variable () =
  (* max x, x <= 3 (no lower bound): optimum 3 *)
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~hi:3. () in
  match solve_max p [ (1., x) ] with
  | Cv_lp.Lp.Optimal s -> check_float "objective" 3. s.Cv_lp.Lp.objective
  | _ -> Alcotest.fail "expected optimal"

let test_fixed_variable () =
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:2. ~hi:2. () in
  let y = Cv_lp.Lp.add_var p ~lo:0. ~hi:1. () in
  Cv_lp.Lp.add_constraint p [ (1., x); (1., y) ] Cv_lp.Lp.Le 2.5;
  match solve_max p [ (1., x); (1., y) ] with
  | Cv_lp.Lp.Optimal s ->
    check_float "objective" 2.5 s.Cv_lp.Lp.objective;
    check_float "x pinned" 2. s.Cv_lp.Lp.values.(x)
  | _ -> Alcotest.fail "expected optimal"

let test_set_bounds_and_copy () =
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:0. ~hi:10. () in
  let q = Cv_lp.Lp.copy p in
  Cv_lp.Lp.set_bounds q x ~lo:1. ~hi:1.;
  Alcotest.(check (pair (float 1e-12) (float 1e-12)))
    "original untouched" (0., 10.) (Cv_lp.Lp.bounds p x);
  Alcotest.(check (pair (float 1e-12) (float 1e-12)))
    "copy updated" (1., 1.) (Cv_lp.Lp.bounds q x);
  match solve_max q [ (1., x) ] with
  | Cv_lp.Lp.Optimal s -> check_float "pinned optimum" 1. s.Cv_lp.Lp.objective
  | _ -> Alcotest.fail "expected optimal"

let test_bad_constraint_var () =
  let p = Cv_lp.Lp.create () in
  let _x = Cv_lp.Lp.add_var p ~lo:0. () in
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Lp.add_constraint: unknown var") (fun () ->
      Cv_lp.Lp.add_constraint p [ (1., 5) ] Cv_lp.Lp.Le 1.)

(* ------------------------------------------------------------------ *)
(* Randomized validation against brute force on box-constrained LPs    *)
(* ------------------------------------------------------------------ *)

(* For an LP with only variable bounds (no rows), the max of a linear
   objective is attained at the appropriate corner. *)
let lp_box_corner_prop =
  QCheck.Test.make ~name:"bounds-only LP optimum = corner value" ~count:100
    QCheck.(list_of_size (Gen.return 4) (pair (float_range (-3.) 3.)
                                            (pair (float_range (-2.) 0.) (float_range 0. 2.))))
    (fun spec ->
      let p = Cv_lp.Lp.create () in
      let vars =
        List.map (fun (_, (lo, hi)) -> Cv_lp.Lp.add_var p ~lo ~hi ()) spec
      in
      let terms = List.map2 (fun (c, _) v -> (c, v)) spec vars in
      let expect =
        List.fold_left
          (fun acc (c, (lo, hi)) -> acc +. if c >= 0. then c *. hi else c *. lo)
          0. spec
      in
      match Cv_lp.Lp.maximize_linear p terms with
      | Cv_lp.Lp.Optimal s -> Float.abs (s.Cv_lp.Lp.objective -. expect) < 1e-6
      | _ -> false)

(* Feasibility of the returned point. *)
let lp_solution_feasible_prop =
  QCheck.Test.make ~name:"returned point satisfies all constraints" ~count:100
    QCheck.(pair (list_of_size (Gen.return 6) (float_range (-2.) 2.))
              (list_of_size (Gen.return 3) (float_range 0.5 4.)))
    (fun (coefs, rhss) ->
      let p = Cv_lp.Lp.create () in
      let x = Cv_lp.Lp.add_var p ~lo:0. ~hi:5. () in
      let y = Cv_lp.Lp.add_var p ~lo:(-5.) ~hi:5. () in
      let rows =
        List.mapi
          (fun i rhs ->
            let a = List.nth coefs (2 * i) and b = List.nth coefs ((2 * i) + 1) in
            (a, b, rhs))
          rhss
      in
      List.iter
        (fun (a, b, rhs) ->
          Cv_lp.Lp.add_constraint p [ (a, x); (b, y) ] Cv_lp.Lp.Le rhs)
        rows;
      match Cv_lp.Lp.maximize_linear p [ (1., x); (1., y) ] with
      | Cv_lp.Lp.Optimal s ->
        let vx = s.Cv_lp.Lp.values.(x) and vy = s.Cv_lp.Lp.values.(y) in
        vx >= -1e-7 && vx <= 5. +. 1e-7 && vy >= -5. -. 1e-7 && vy <= 5. +. 1e-7
        && List.for_all
             (fun (a, b, rhs) -> (a *. vx) +. (b *. vy) <= rhs +. 1e-6)
             rows
      | Cv_lp.Lp.Infeasible -> false (* box origin... x=0,y=0 may violate? *)
      | Cv_lp.Lp.Unbounded | Cv_lp.Lp.Stalled -> false
      | exception _ -> false)


(* Exact validation on random 2-variable LPs: the optimum of a bounded
   feasible LP lies at a vertex of the feasible polygon; enumerate all
   candidate vertices (pairwise constraint/bound intersections), filter
   by feasibility, and compare. *)
let lp_vertex_enumeration_prop =
  QCheck.Test.make ~name:"2-var LP matches vertex enumeration" ~count:80
    QCheck.(pair (list_of_size (Gen.return 9) (float_range (-2.) 2.))
              (pair (float_range 0.5 3.) (float_range 0.5 3.)))
    (fun (coefs, (cx, cy)) ->
      (* Three <= constraints a x + b y <= c over the box [0,2]^2. *)
      let cons =
        List.init 3 (fun i ->
            ( List.nth coefs (3 * i),
              List.nth coefs ((3 * i) + 1),
              (* keep rhs >= 0 so the origin stays feasible *)
              Float.abs (List.nth coefs ((3 * i) + 2)) ))
      in
      let feasible (x, y) =
        x >= -1e-9 && x <= 2. +. 1e-9 && y >= -1e-9 && y <= 2. +. 1e-9
        && List.for_all (fun (a, b, c) -> (a *. x) +. (b *. y) <= c +. 1e-7) cons
      in
      (* Candidate vertices: intersections of all boundary pairs. *)
      let lines =
        (* constraint lines plus the four box edges *)
        List.map (fun (a, b, c) -> (a, b, c)) cons
        @ [ (1., 0., 0.); (1., 0., 2.); (0., 1., 0.); (0., 1., 2.) ]
      in
      let candidates = ref [ (0., 0.) ] in
      List.iteri
        (fun i (a1, b1, c1) ->
          List.iteri
            (fun j (a2, b2, c2) ->
              if j > i then begin
                let det = (a1 *. b2) -. (a2 *. b1) in
                if Float.abs det > 1e-9 then
                  candidates :=
                    ( ((c1 *. b2) -. (c2 *. b1)) /. det,
                      ((a1 *. c2) -. (a2 *. c1)) /. det )
                    :: !candidates
              end)
            lines)
        lines;
      let best =
        List.fold_left
          (fun acc (x, y) ->
            if feasible (x, y) then Float.max acc ((cx *. x) +. (cy *. y))
            else acc)
          Float.neg_infinity !candidates
      in
      let p = Cv_lp.Lp.create () in
      let x = Cv_lp.Lp.add_var p ~lo:0. ~hi:2. () in
      let y = Cv_lp.Lp.add_var p ~lo:0. ~hi:2. () in
      List.iter
        (fun (a, b, c) ->
          Cv_lp.Lp.add_constraint p [ (a, x); (b, y) ] Cv_lp.Lp.Le c)
        cons;
      match Cv_lp.Lp.maximize_linear p [ (cx, x); (cy, y) ] with
      | Cv_lp.Lp.Optimal s -> Float.abs (s.Cv_lp.Lp.objective -. best) < 1e-5
      | _ -> false)

(* Degenerate LP that historically cycles without Bland's rule. *)
let test_degenerate_no_cycle () =
  (* Beale's example of cycling. *)
  let p = Cv_lp.Lp.create () in
  let x1 = Cv_lp.Lp.add_var p ~lo:0. () in
  let x2 = Cv_lp.Lp.add_var p ~lo:0. () in
  let x3 = Cv_lp.Lp.add_var p ~lo:0. () in
  let x4 = Cv_lp.Lp.add_var p ~lo:0. () in
  Cv_lp.Lp.add_constraint p
    [ (0.25, x1); (-8., x2); (-1., x3); (9., x4) ]
    Cv_lp.Lp.Le 0.;
  Cv_lp.Lp.add_constraint p
    [ (0.5, x1); (-12., x2); (-0.5, x3); (3., x4) ]
    Cv_lp.Lp.Le 0.;
  Cv_lp.Lp.add_constraint p [ (1., x3) ] Cv_lp.Lp.Le 1.;
  match
    Cv_lp.Lp.maximize_linear p
      [ (0.75, x1); (-20., x2); (0.5, x3); (-6., x4) ]
  with
  | Cv_lp.Lp.Optimal s -> check_float "Beale optimum" 1.25 s.Cv_lp.Lp.objective
  | _ -> Alcotest.fail "expected optimal"

(* Chvátal's classic cycling LP: Dantzig pivoting cycles forever on
   this basis; Bland's rule must terminate at the optimum of 1. *)
let test_chvatal_cycling () =
  let p = Cv_lp.Lp.create () in
  let x1 = Cv_lp.Lp.add_var p ~lo:0. () in
  let x2 = Cv_lp.Lp.add_var p ~lo:0. () in
  let x3 = Cv_lp.Lp.add_var p ~lo:0. () in
  let x4 = Cv_lp.Lp.add_var p ~lo:0. () in
  Cv_lp.Lp.add_constraint p
    [ (0.5, x1); (-5.5, x2); (-2.5, x3); (9., x4) ]
    Cv_lp.Lp.Le 0.;
  Cv_lp.Lp.add_constraint p
    [ (0.5, x1); (-1.5, x2); (-0.5, x3); (1., x4) ]
    Cv_lp.Lp.Le 0.;
  Cv_lp.Lp.add_constraint p [ (1., x1) ] Cv_lp.Lp.Le 1.;
  match
    Cv_lp.Lp.maximize_linear p
      [ (10., x1); (-57., x2); (-9., x3); (-24., x4) ]
  with
  | Cv_lp.Lp.Optimal s ->
    check_float "Chvátal optimum" 1. s.Cv_lp.Lp.objective;
    check_float "x1 at its bound" 1. s.Cv_lp.Lp.values.(x1)
  | _ -> Alcotest.fail "expected optimal"

(* Rows whose left-hand side is identically zero (empty term list or
   all-zero coefficients) must resolve by rhs sign, not crash a ratio
   test. *)
let test_zero_row_constraints () =
  (* 0 <= 1 and 0·x = 0 are vacuous: the box optimum survives. *)
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:0. ~hi:3. () in
  Cv_lp.Lp.add_constraint p [] Cv_lp.Lp.Le 1.;
  Cv_lp.Lp.add_constraint p [ (0., x) ] Cv_lp.Lp.Eq 0.;
  (match solve_max p [ (1., x) ] with
  | Cv_lp.Lp.Optimal s -> check_float "vacuous rows" 3. s.Cv_lp.Lp.objective
  | _ -> Alcotest.fail "expected optimal through vacuous rows");
  (* 0 >= 1 is unsatisfiable no matter the variables. *)
  let q = Cv_lp.Lp.create () in
  let y = Cv_lp.Lp.add_var q ~lo:0. ~hi:3. () in
  Cv_lp.Lp.add_constraint q [ (0., y) ] Cv_lp.Lp.Ge 1.;
  match solve_max q [ (1., y) ] with
  | Cv_lp.Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible zero row"

(* A variable that appears in no constraint (zero column) is governed
   by its box alone: finite box feeds the optimum, missing bound on the
   improving side means unbounded. *)
let test_zero_column_variable () =
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:0. ~hi:2. () in
  let loose = Cv_lp.Lp.add_var p ~lo:(-1.) ~hi:4. () in
  Cv_lp.Lp.add_constraint p [ (1., x) ] Cv_lp.Lp.Le 1.;
  (match solve_max p [ (1., x); (1., loose) ] with
  | Cv_lp.Lp.Optimal s ->
    check_float "boxed zero column" 5. s.Cv_lp.Lp.objective;
    check_float "loose at hi" 4. s.Cv_lp.Lp.values.(loose)
  | _ -> Alcotest.fail "expected optimal with boxed zero column");
  let q = Cv_lp.Lp.create () in
  let z = Cv_lp.Lp.add_var q ~lo:0. ~hi:1. () in
  let ray = Cv_lp.Lp.add_var q ~lo:0. () in
  Cv_lp.Lp.add_constraint q [ (1., z) ] Cv_lp.Lp.Le 1.;
  match solve_max q [ (1., z); (1., ray) ] with
  | Cv_lp.Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded zero column"

(* Starving phase 1 (a Ge row needs pivots before any feasible point
   exists) must also degrade to [Stalled], and the problem must stay
   reusable afterwards. *)
let test_stalled_in_phase1 () =
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:0. () in
  let y = Cv_lp.Lp.add_var p ~lo:0. () in
  let z = Cv_lp.Lp.add_var p ~lo:0. () in
  (* three artificials to drive out: one pivot cannot reach feasibility *)
  Cv_lp.Lp.add_constraint p [ (1., x); (1., y) ] Cv_lp.Lp.Ge 4.;
  Cv_lp.Lp.add_constraint p [ (1., y); (1., z) ] Cv_lp.Lp.Ge 4.;
  Cv_lp.Lp.add_constraint p [ (1., x); (1., z) ] Cv_lp.Lp.Ge 4.;
  Cv_lp.Lp.set_objective p ~maximize:false [ (1., x); (1., y); (1., z) ];
  (match Cv_lp.Lp.solve ~max_iters:1 p with
  | Cv_lp.Lp.Stalled -> ()
  | _ -> Alcotest.fail "expected Stalled inside phase 1");
  match Cv_lp.Lp.solve p with
  | Cv_lp.Lp.Optimal s -> check_float "recovered optimum" 6. s.Cv_lp.Lp.objective
  | _ -> Alcotest.fail "expected optimal after removing the cap"

(* ------------------------------------------------------------------ *)
(* Fixing via set_bounds across the four lowering paths                *)
(* ------------------------------------------------------------------ *)

(* One variable per lowering path — shift (lo only), reflect (hi only),
   split (free), finite box (shift + upper-bound row). Fixing any of
   them to a point (lo = hi) must pin its value in the re-lowered
   solve. *)
let test_set_bounds_fixing_paths () =
  let mk () =
    let p = Cv_lp.Lp.create () in
    let shift = Cv_lp.Lp.add_var p ~lo:1. () in
    let refl = Cv_lp.Lp.add_var p ~hi:5. () in
    let free = Cv_lp.Lp.add_var p () in
    let box = Cv_lp.Lp.add_var p ~lo:0. ~hi:4. () in
    (* Couple everything so no variable is trivially at a bound. *)
    Cv_lp.Lp.add_constraint p
      [ (1., shift); (1., refl); (1., free); (1., box) ]
      Cv_lp.Lp.Le 10.;
    Cv_lp.Lp.add_constraint p [ (1., free) ] Cv_lp.Lp.Ge (-3.);
    (p, [| shift; refl; free; box |])
  in
  let fixes = [| 2.5; -1.5; -2.; 3. |] in
  Array.iteri
    (fun i x ->
      let p, vars = mk () in
      Cv_lp.Lp.set_bounds p vars.(i) ~lo:x ~hi:x;
      match
        Cv_lp.Lp.maximize_linear p
          (Array.to_list (Array.map (fun v -> (1., v)) vars))
      with
      | Cv_lp.Lp.Optimal s ->
        check_float
          (Printf.sprintf "path %d fixed value" i)
          x
          s.Cv_lp.Lp.values.(vars.(i));
        check_float (Printf.sprintf "path %d objective" i) 10.
          s.Cv_lp.Lp.objective
      | _ -> Alcotest.fail "expected optimal")
    fixes

(* ------------------------------------------------------------------ *)
(* Compiled interface: warm restarts vs fresh solves                   *)
(* ------------------------------------------------------------------ *)

(* Re-bounding a compiled fixable variable must agree with re-lowering
   from scratch, and after the first solve the re-solves must hit the
   dual warm-start path. *)
let test_compiled_matches_fresh () =
  let build () =
    let p = Cv_lp.Lp.create () in
    let x = Cv_lp.Lp.add_var p ~lo:0. ~hi:1. () in
    let y = Cv_lp.Lp.add_var p ~lo:0. ~hi:1. () in
    let z = Cv_lp.Lp.add_var p ~lo:0. ~hi:3. () in
    Cv_lp.Lp.add_constraint p [ (2., x); (1., y); (1., z) ] Cv_lp.Lp.Le 3.5;
    Cv_lp.Lp.add_constraint p [ (1., x); (-1., y) ] Cv_lp.Lp.Ge (-0.5);
    (p, x, y, z)
  in
  let p, x, y, _z = build () in
  Cv_lp.Lp.set_objective p ~maximize:true [ (3., x); (2., y); (1., _z) ];
  let c = Cv_lp.Lp.compile ~fixable:[ x; y ] p in
  let hits0 = Cv_util.Metrics.value (Cv_util.Metrics.counter "lp.warmstart.hits") in
  let boxes =
    [ [ (x, 0., 0.) ];
      [ (x, 0., 0.); (y, 1., 1.) ];
      [ (x, 1., 1.); (y, 1., 1.) ];
      [ (x, 1., 1.) ];
      [] ]
  in
  List.iter
    (fun fixing ->
      List.iter (fun v -> Cv_lp.Lp.set_bounds_compiled c v ~lo:0. ~hi:1.) [ x; y ];
      List.iter
        (fun (v, lo, hi) -> Cv_lp.Lp.set_bounds_compiled c v ~lo ~hi)
        fixing;
      let fresh =
        let p', x', y', z' = build () in
        let map v = if v = x then x' else if v = y then y' else v in
        List.iter
          (fun (v, lo, hi) -> Cv_lp.Lp.set_bounds p' (map v) ~lo ~hi)
          fixing;
        Cv_lp.Lp.maximize_linear p' [ (3., x'); (2., y'); (1., z') ]
      in
      match (Cv_lp.Lp.solve_compiled c, fresh) with
      | Cv_lp.Lp.Optimal sc, Cv_lp.Lp.Optimal sf ->
        check_float "compiled = fresh objective" sf.Cv_lp.Lp.objective
          sc.Cv_lp.Lp.objective
      | Cv_lp.Lp.Infeasible, Cv_lp.Lp.Infeasible -> ()
      | _ -> Alcotest.fail "compiled and fresh solves disagree")
    boxes;
  let hits1 = Cv_util.Metrics.value (Cv_util.Metrics.counter "lp.warmstart.hits") in
  Alcotest.(check bool) "warm-start hits recorded" true (hits1 > hits0)

(* The gadget row pair must support fixing at both ends of each of the
   compile-time boxes (degenerate lo = hi included). *)
let test_compiled_fixing_validation () =
  let p = Cv_lp.Lp.create () in
  let b = Cv_lp.Lp.add_var p ~lo:0. ~hi:1. () in
  let free = Cv_lp.Lp.add_var p () in
  Cv_lp.Lp.add_constraint p [ (1., b); (1., free) ] Cv_lp.Lp.Le 2.;
  Cv_lp.Lp.set_objective p ~maximize:true [ (1., b); (1., free) ];
  (match Cv_lp.Lp.compile ~fixable:[ free ] p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "compile must reject unbounded fixable variables");
  let c = Cv_lp.Lp.compile ~fixable:[ b ] p in
  (match Cv_lp.Lp.set_bounds_compiled c b ~lo:(-1.) ~hi:1. with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "re-bound outside the compiled box must be rejected");
  Cv_lp.Lp.set_bounds_compiled c b ~lo:1. ~hi:1.;
  match Cv_lp.Lp.solve_compiled c with
  | Cv_lp.Lp.Optimal s -> check_float "b fixed at 1" 1. s.Cv_lp.Lp.values.(b)
  | _ -> Alcotest.fail "expected optimal"

(* ------------------------------------------------------------------ *)
(* Objective swaps on one compiled model                               *)
(* ------------------------------------------------------------------ *)

let counter name = Cv_util.Metrics.value (Cv_util.Metrics.counter name)

(* A new objective on a root-optimal compiled model restarts primal
   phase 2 from its basis: no second cold solve, same optimum as a fresh
   lowering. *)
let test_objective_swap_restarts_warm () =
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:0. ~hi:4. () in
  let y = Cv_lp.Lp.add_var p ~lo:(-1.) ~hi:3. () in
  Cv_lp.Lp.add_constraint p [ (1., x); (2., y) ] Cv_lp.Lp.Le 4.;
  Cv_lp.Lp.add_constraint p [ (3., x); (1., y) ] Cv_lp.Lp.Le 6.;
  Cv_lp.Lp.set_objective p ~maximize:true [ (1., x); (1., y) ];
  let c = Cv_lp.Lp.compile p in
  ignore (Cv_lp.Lp.solve_compiled c);
  let misses0 = counter "lp.warmstart.misses" in
  let hits0 = counter "lp.warmstart.hits" in
  let objectives =
    [ (false, [ (1., x); (1., y) ]); (true, [ (2., x); (-1., y) ]);
      (false, [ (-1., x); (3., y) ]) ]
  in
  List.iter
    (fun (maximize, terms) ->
      Cv_lp.Lp.set_objective_compiled c ~maximize terms;
      Cv_lp.Lp.set_objective p ~maximize terms;
      match (Cv_lp.Lp.solve_compiled c, Cv_lp.Lp.solve (Cv_lp.Lp.copy p)) with
      | Cv_lp.Lp.Optimal sc, Cv_lp.Lp.Optimal sf ->
        check_float "restart = fresh objective" sf.Cv_lp.Lp.objective
          sc.Cv_lp.Lp.objective;
        Alcotest.(check (float 0.)) "frame follows the objective"
          (if maximize then -1. else 1.)
          (fst (Cv_lp.Lp.compiled_frame c))
      | _ -> Alcotest.fail "expected optimal restarts")
    objectives;
  (* The fresh solves above are cold; the restarts are not. *)
  Alcotest.(check int) "restarts are warm hits" 3
    (counter "lp.warmstart.hits" - hits0);
  Alcotest.(check int) "only the fresh solves miss" 3
    (counter "lp.warmstart.misses" - misses0)

(* Random objective sequences on one compiled model — max and min
   alternating, a fixable variable re-bounded before or after each
   swap — against a fresh lowering and cold solve of the same model. *)
let lp_objective_sequence_prop =
  QCheck.Test.make ~name:"objective swaps on one compiled model = fresh solves"
    ~count:150
    QCheck.(
      triple
        (list_of_size (Gen.return 16) (float_range (-2.) 2.))
        (list_of_size (Gen.return 30) (float_range (-3.) 3.))
        (list_of_size (Gen.return 15) bool))
    (fun (rows, steps, flags) ->
      let rows = Array.of_list rows
      and steps = Array.of_list steps
      and flags = Array.of_list flags in
      (* x, y fixable (shifted), z upper-bounded only (reflected), w free
         (split); Le, Ge and Eq rows, all satisfied at the origin. *)
      let build () =
        let p = Cv_lp.Lp.create () in
        let x = Cv_lp.Lp.add_var p ~lo:0. ~hi:2. () in
        let y = Cv_lp.Lp.add_var p ~lo:(-1.) ~hi:3. () in
        let z = Cv_lp.Lp.add_var p ~hi:4. () in
        let w = Cv_lp.Lp.add_var p () in
        let vars = [| x; y; z; w |] in
        let row k = List.init 4 (fun j -> (rows.((4 * k) + j), vars.(j))) in
        Cv_lp.Lp.add_constraint p (row 0) Cv_lp.Lp.Le (Float.abs rows.(0) +. 0.5);
        Cv_lp.Lp.add_constraint p (row 1) Cv_lp.Lp.Le (Float.abs rows.(5) +. 0.5);
        Cv_lp.Lp.add_constraint p (row 2) Cv_lp.Lp.Ge
          (-.(Float.abs rows.(10) +. 0.5));
        Cv_lp.Lp.add_constraint p (row 3) Cv_lp.Lp.Eq 0.;
        (p, vars)
      in
      let p, vars = build () in
      let boxes = [| (0., 2.); (-1., 3.) |] in
      let c = Cv_lp.Lp.compile ~fixable:[ vars.(0); vars.(1) ] p in
      let same a b =
        match (a, b) with
        | Cv_lp.Lp.Optimal sa, Cv_lp.Lp.Optimal sb ->
          let oa = sa.Cv_lp.Lp.objective and ob = sb.Cv_lp.Lp.objective in
          Float.abs (oa -. ob)
          <= 1e-7 *. Float.max 1. (Float.max (Float.abs oa) (Float.abs ob))
        | Cv_lp.Lp.Infeasible, Cv_lp.Lp.Infeasible
        | Cv_lp.Lp.Unbounded, Cv_lp.Lp.Unbounded
        | Cv_lp.Lp.Stalled, Cv_lp.Lp.Stalled ->
          true
        | _ -> false
      in
      List.for_all
        (fun k ->
          let maximize = k mod 2 = 0 in
          let terms = List.init 4 (fun j -> (steps.((6 * k) + j), vars.(j))) in
          let rebound () =
            if flags.((3 * k) + 1) then begin
              let i = if flags.((3 * k) + 2) then 0 else 1 in
              let l, u = boxes.(i) in
              let at f = l +. ((u -. l) *. (f +. 3.) /. 6.) in
              let a = at steps.((6 * k) + 4) and b = at steps.((6 * k) + 5) in
              Cv_lp.Lp.set_bounds_compiled c vars.(i) ~lo:(Float.min a b)
                ~hi:(Float.max a b);
              boxes.(i) <- (Float.min a b, Float.max a b)
            end
          in
          (* Re-bounding before the swap leaves a repriced warm basis;
             after it, the pending restart must give way to a cold
             solve. *)
          if flags.(3 * k) then rebound ();
          Cv_lp.Lp.set_objective_compiled c ~maximize terms;
          if not flags.(3 * k) then rebound ();
          let fresh =
            let p', vars' = build () in
            Array.iteri
              (fun i (lo, hi) -> Cv_lp.Lp.set_bounds p' vars'.(i) ~lo ~hi)
              boxes;
            Cv_lp.Lp.set_objective p' ~maximize
              (List.map2 (fun (coef, _) v -> (coef, v)) terms
                 (Array.to_list vars'));
            Cv_lp.Lp.solve p'
          in
          same (Cv_lp.Lp.solve_compiled c) fresh)
        [ 0; 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* Iteration-limit degradation                                         *)
(* ------------------------------------------------------------------ *)

(* A starved simplex must surface [Stalled] (a structured outcome the
   callers degrade on) instead of raising. *)
let test_stalled_on_iteration_limit () =
  let p = Cv_lp.Lp.create () in
  let x = Cv_lp.Lp.add_var p ~lo:0. () in
  let y = Cv_lp.Lp.add_var p ~lo:0. () in
  Cv_lp.Lp.add_constraint p [ (1., x); (2., y) ] Cv_lp.Lp.Le 4.;
  Cv_lp.Lp.add_constraint p [ (3., x); (1., y) ] Cv_lp.Lp.Le 6.;
  Cv_lp.Lp.set_objective p ~maximize:true [ (1., x); (1., y) ];
  (match Cv_lp.Lp.solve ~max_iters:1 p with
  | Cv_lp.Lp.Stalled -> ()
  | _ -> Alcotest.fail "expected Stalled under max_iters:1");
  match Cv_lp.Lp.solve p with
  | Cv_lp.Lp.Optimal s -> check_float "unstarved optimum" 2.8 s.Cv_lp.Lp.objective
  | _ -> Alcotest.fail "expected optimal without the iteration cap"

let () =
  Alcotest.run "cv_lp"
    [ ( "basic",
        [ Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "minimize" `Quick test_minimize;
          Alcotest.test_case "equality" `Quick test_equality_constraint;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "degenerate (Beale)" `Quick
            test_degenerate_no_cycle;
          Alcotest.test_case "degenerate (Chvátal)" `Quick
            test_chvatal_cycling;
          Alcotest.test_case "zero rows" `Quick test_zero_row_constraints;
          Alcotest.test_case "zero column" `Quick test_zero_column_variable;
          Alcotest.test_case "stalled in phase 1" `Quick
            test_stalled_in_phase1 ] );
      ( "bounds",
        [ Alcotest.test_case "negative lower bounds" `Quick
            test_negative_lower_bounds;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "upper-bound-only" `Quick
            test_upper_bound_only_variable;
          Alcotest.test_case "fixed variable" `Quick test_fixed_variable;
          Alcotest.test_case "set_bounds/copy" `Quick test_set_bounds_and_copy;
          Alcotest.test_case "constraint validation" `Quick
            test_bad_constraint_var;
          Alcotest.test_case "fixing across lowering paths" `Quick
            test_set_bounds_fixing_paths ] );
      ( "compiled",
        [ Alcotest.test_case "matches fresh solves" `Quick
            test_compiled_matches_fresh;
          Alcotest.test_case "fixing validation" `Quick
            test_compiled_fixing_validation;
          Alcotest.test_case "stalled on iteration limit" `Quick
            test_stalled_on_iteration_limit;
          Alcotest.test_case "objective swap restarts warm" `Quick
            test_objective_swap_restarts_warm;
          QCheck_alcotest.to_alcotest lp_objective_sequence_prop ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest lp_box_corner_prop;
          QCheck_alcotest.to_alcotest lp_solution_feasible_prop;
          QCheck_alcotest.to_alcotest lp_vertex_enumeration_prop ] ) ]
