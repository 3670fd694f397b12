(* table1: the paper's Table I. Four exact original solves, then a
   closed loop of the eight incremental cases (SVuDC of head i-1 over
   the enlarged domain, SVbTV from head i-1 to head i) in a seeded order
   per sweep. Almost all original work is LP/MILP; the incremental
   solves are route selection plus small exact local subproblems. *)

module S = Cv_core.Strategy

type kind = Svudc | Svbtv

let kind_name = function Svudc -> "svudc" | Svbtv -> "svbtv"

(* Traced-only layer probes on case 1: exact reach per network layer
   against the stored S_i, the Prop 4 local subproblem per layer, the
   full exact range and the global Lipschitz constant. *)
let probes (t : Util.t) ~heads ~prop ~new_din ~artifact =
  let head = heads.(0) in
  let din = prop.Cv_verify.Property.din in
  let chain =
    Option.value ~default:[||] artifact.Cv_artifacts.Artifacts.state_abstractions
  in
  let n = Cv_nn.Network.num_layers head in
  let exact_range id net =
    Util.probe t ~layer:"verify" ~id (fun () -> Cv_verify.Range.exact_range net ~din)
  in
  Util.traced_section t (fun () ->
      let full, s = Util.timed (fun () -> exact_range "exact-range" head) in
      Util.set t "verify.exact_range_s" s;
      for i = 1 to n do
        let exact =
          if i = n then full
          else
            exact_range (Printf.sprintf "exact-prefix-%d" i) (Cv_nn.Network.prefix head i)
        in
        Util.set t
          (Printf.sprintf "layer%d.exact_width" i)
          (Cv_interval.Box.total_width exact.Cv_verify.Range.range);
        if i <= Array.length chain then begin
          Util.set t
            (Printf.sprintf "layer%d.abs_width" i)
            (Cv_interval.Box.total_width chain.(i - 1));
          let slice = Cv_nn.Network.slice heads.(1) ~from_:(i - 1) ~to_:i in
          let input_box = if i = 1 then new_din else chain.(i - 2) in
          Util.set t
            (Printf.sprintf "layer%d.local_s" i)
            (Util.probe t ~layer:"verify" ~id:(Printf.sprintf "local-%d" i)
               (fun () ->
                 Util.batched ~reps:30 (fun () ->
                     Cv_verify.Containment.check Cv_verify.Containment.Milp slice
                       ~input_box ~target:chain.(i - 1))))
        end
      done;
      Util.set t "lipschitz.global_s"
        (Util.probe t ~layer:"lipschitz" ~id:"global" (fun () ->
             Util.batched ~reps:5000 (fun () ->
                 Cv_lipschitz.Lipschitz.global ~norm:Cv_lipschitz.Lipschitz.Linf
                   head))))

let run (t : Util.t) =
  let exp =
    Util.setup t (fun () ->
        Cv_vehicle.Pipeline.build ~config:(Util.pipeline t) ())
  in
  let heads = exp.Cv_vehicle.Pipeline.heads in
  let prop = Cv_vehicle.Pipeline.property exp in
  let new_din = exp.Cv_vehicle.Pipeline.enlarged_din in
  let cases = Array.length heads - 1 in
  t.chain_flops <- Util.symint_flops heads.(0);
  let originals =
    Util.traced_section t (fun () ->
        Array.init cases (fun i ->
            let o, s =
              Util.op t ~measured:t.traced ~layer:"core.strategy"
                ~id:(Printf.sprintf "original-%d" (i + 1))
                (fun () -> S.solve_original_exact heads.(i) prop)
            in
            Util.expect t o.S.proved
              (Printf.sprintf "table1: original of case %d not proved" (i + 1));
            (o.S.artifact, s)))
  in
  Util.named t "original_p50_s"
    (Util.median (Array.to_list (Array.map snd originals)))
    "s";
  (* The probes run before the incremental solves: after those (which
     start and join worker domains), the same exact-range calls left the
     major heap growing to over 500 MB. *)
  if t.traced then probes t ~heads ~prop ~new_din ~artifact:(fst originals.(0));
  let ops =
    Array.of_list
      (List.concat_map (fun c -> [ (Svudc, c); (Svbtv, c) ]) (List.init cases succ))
  in
  let rng = Cv_util.Rng.create (Util.subseed t 1) in
  let routes = Hashtbl.create 8 in
  let by_kind = ref [] in
  let incremental ~measured (kind, case) =
    let artifact = fst originals.(case - 1) in
    let old_net = heads.(case - 1) in
    let id = Printf.sprintf "%s-%d" (kind_name kind) case in
    let solve () =
      match kind with
      | Svudc ->
        S.solve_svudc (Cv_core.Problem.svudc ~net:old_net ~artifact ~new_din)
      | Svbtv ->
        S.solve_svbtv
          (Cv_core.Problem.svbtv ~old_net ~new_net:heads.(case) ~artifact ~new_din)
    in
    let report, s = Util.op t ~measured ~layer:"core.strategy" ~id solve in
    let route = Option.value ~default:"none" report.Cv_core.Report.decisive in
    Util.expect t
      (report.Cv_core.Report.verdict = Cv_core.Report.Safe)
      (Printf.sprintf "table1: %s not Safe (%s)" id
         (Cv_core.Report.outcome_string report.Cv_core.Report.verdict));
    (match Hashtbl.find_opt routes id with
    | None -> Hashtbl.replace routes id route
    | Some r -> Util.expect t (r = route) (id ^ ": decisive route changed"));
    by_kind := (kind, s) :: !by_kind;
    t.latencies <- s :: t.latencies;
    t.cases <- (id, s) :: t.cases;
    s
  in
  let sweep ~measured _ =
    let order = Array.copy ops in
    Cv_util.Rng.shuffle rng order;
    let s = Array.fold_left (fun acc o -> acc +. incremental ~measured o) 0. order in
    Util.rate t (Array.length order) s
  in
  (* Each sweep runs every case once: 25 sweeps give each kind's p90
     100 samples. *)
  let min_sweeps = if t.small then 1 else 25 in
  Util.measure t ~min_ops:min_sweeps ~fixed:min_sweeps
    ~reset:(fun () -> by_kind := [])
    sweep;
  List.iter
    (fun k ->
      let xs = List.filter_map (fun (k', s) -> if k = k' then Some s else None) !by_kind in
      Util.named t (kind_name k ^ "_p50_s") (Util.median xs) "s";
      Util.named t (kind_name k ^ "_p90_s") (Util.quantile 0.9 xs) "s")
    [ Svudc; Svbtv ];
  Hashtbl.iter (fun id r -> Util.count t ("route." ^ id) r) routes
