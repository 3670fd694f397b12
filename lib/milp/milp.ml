(** Mixed-integer linear programming by branch-and-bound over {!Cv_lp}.

    The integer variables are binaries (which is all the big-M ReLU
    encoding needs). Branching is best-first on the LP relaxation bound
    — the frontier is a binary max-heap ({!Cv_util.Heap}), not a sorted
    list — with most-fractional variable selection. An optional [cutoff]
    lets verification queries stop early: when proving "max ≤ θ" it
    suffices to fathom every node whose relaxation bound is ≤ θ, and to
    stop as soon as an integer-feasible point exceeds θ.

    The model is lowered {e once} per problem ({!Cv_lp.Lp.compile} with
    the binaries fixable) and its root-optimal compiled state is kept
    between solves: the next {!maximize} or {!minimize} on the problem
    swaps that state's objective and restarts primal phase 2 from its
    basis ({!Cv_lp.Lp.set_objective_compiled}), so the 2·d bound queries
    of a containment check pay one lowering and one cold root solve.
    Within a search each node relaxation is then a handful of
    rhs updates plus a dual-simplex warm restart from the previous
    node's optimal basis — the objective is fixed for the whole search,
    so any node's optimal basis is dual-feasible for every other node.
    Popped nodes are {e plunged}: the search dives depth-first towards
    the relaxation's rounding (consecutive solves differ by one fixing,
    keeping warm restarts to a few pivots) while the passed-over
    siblings join the best-first frontier; each node LP also stops early
    once weak duality certifies it fathomable ([bound_cutoff]). With
    [?domains > 1], batches of frontier nodes are dived on parallel
    domains (one compiled solver state per slot) and their effects
    replayed in deterministic batch order, so verdicts match the
    sequential search. *)

type solution = { objective : float; values : float array }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Cutoff_reached of solution
      (** an integer point beat the requested cutoff; search stopped *)
  | Below_cutoff of float
      (** every node was fathomed at or below the cutoff; the payload is
          a proven upper bound on the true optimum (≤ cutoff) *)
  | Timeout of { bound : float; incumbent : solution option }
      (** the deadline, node budget or simplex iteration budget expired
          before the gap closed; [bound] is a certified bound on the
          true optimum from the unfathomed relaxations (an {e upper}
          bound when maximising, a lower bound when minimising; infinite
          when even the root relaxation did not finish) and [incumbent]
          the best integer-feasible point found so far *)

type root_cache = Cv_lp.Lp.compiled option

type problem = {
  lp : Cv_lp.Lp.problem;
  mutable binaries : int list;
  mutable nbin : int;  (** cached [List.length binaries] *)
  mutable root : root_cache;
      (** the last solve's root-optimal compiled state, untouched by any
          dive; [None] while a search runs and after a model change *)
}

(** [create ()] is an empty MILP model. *)
let create () =
  { lp = Cv_lp.Lp.create (); binaries = []; nbin = 0; root = None }

(** [add_var p ?lo ?hi ?name ()] declares a continuous variable. *)
let add_var p ?lo ?hi ?name () =
  p.root <- None;
  Cv_lp.Lp.add_var p.lp ?lo ?hi ?name ()

(** [add_binary p ?name ()] declares a 0/1 integer variable. *)
let add_binary p ?name () =
  p.root <- None;
  let v = Cv_lp.Lp.add_var p.lp ~lo:0. ~hi:1. ?name () in
  p.binaries <- v :: p.binaries;
  p.nbin <- p.nbin + 1;
  v

(** [add_constraint p terms op rhs] adds a linear constraint. *)
let add_constraint p terms op rhs =
  p.root <- None;
  Cv_lp.Lp.add_constraint p.lp terms op rhs

(** [var_count p] / [constraint_count p] expose model size for
    reports. *)
let var_count p = Cv_lp.Lp.var_count p.lp

let constraint_count p = Cv_lp.Lp.constraint_count p.lp

(** [binary_count p] is the cached number of integer variables. *)
let binary_count p = p.nbin

let int_tol = 1e-6

(* Branch-and-bound effort accounting (surfaced by `contiver --stats`
   and the bench trajectory). *)
let m_solves = Cv_util.Metrics.counter "milp.solves"

let m_nodes = Cv_util.Metrics.counter "milp.nodes"

let m_fathomed = Cv_util.Metrics.counter "milp.fathomed"

let m_incumbents = Cv_util.Metrics.counter "milp.incumbents"

let m_timeouts = Cv_util.Metrics.counter "milp.timeouts"

let m_crashes = Cv_util.Metrics.counter "milp.dive_crashes"

let t_seconds = Cv_util.Metrics.timer "milp.seconds"

(* A crashed worker domain degrades the solve to a certified [Timeout]
   once it has struck this many times — the frontier stays sound (the
   crashed dive's root is re-queued), so retry-forever is the only
   other option, and a poisoned subproblem would then hang the run. *)
let max_dive_crashes = 5

(* Most fractional binary, or None if all integral. *)
let pick_branch_var binaries (values : float array) =
  let best = ref None and best_frac = ref int_tol in
  List.iter
    (fun v ->
      let x = values.(v) in
      let frac = Float.abs (x -. Float.round x) in
      if frac > !best_frac then begin
        best_frac := frac;
        best := Some v
      end)
    binaries;
  !best

(* One branch-and-bound solver slot: a compiled LP plus the binary
   fixings currently applied to it. Slot [i] is only ever touched by
   batch item [i], so parallel batches need no locking. *)
type worker = {
  wc : Cv_lp.Lp.compiled;
  mutable wfixed : (int * float) list;
}

(* Move a worker's compiled LP from its current fixings to [fixed]:
   release binaries no longer fixed back to [0,1] (their declared box),
   then apply the new/changed fixings. Each change is an O(m) rhs
   update, warm-start preserving. *)
let move_to w fixed =
  List.iter
    (fun (v, _) ->
      if not (List.mem_assoc v fixed) then
        Cv_lp.Lp.set_bounds_compiled w.wc v ~lo:0. ~hi:1.)
    w.wfixed;
  List.iter
    (fun (v, x) ->
      match List.assoc_opt v w.wfixed with
      | Some x' when x' = x -> ()
      | _ -> Cv_lp.Lp.set_bounds_compiled w.wc v ~lo:x ~hi:x)
    fixed;
  w.wfixed <- fixed

(* Effects a dive wants to apply to the shared search state. Dives run
   on private worker slots and only *record* what happened; the driver
   replays the events in deterministic batch order, so verdicts are
   independent of the domain count. *)
type dive_event =
  | Epush of float * (int * float) list
      (** a sibling (or budget-stopped node) for the frontier *)
  | Efathom of float  (** a subtree fathomed at this certified bound *)
  | Eincumbent of solution  (** an integer-feasible point *)
  | Eunbounded
  | Estop of float * (int * float) list
      (** deadline/stall hit this in-flight node: re-queue it and flag a
          timeout *)

(* ------------------------------------------------------------------ *)
(* Search-state snapshots                                              *)
(* ------------------------------------------------------------------ *)

(* A checkpoint captures everything the batch loop owns: the frontier
   (node bounds and binary fixings), the incumbent, the fathomed-bound
   high-water mark and the node count. It deliberately does NOT capture
   solver-internal state (bases, rhs) — on resume the root is re-solved
   and every frontier node is re-derived by rhs updates, so a snapshot
   is small and valid across processes. Best-first branch-and-bound is
   exact whatever the exploration order, so resuming from a snapshot
   yields the same verdict as the uninterrupted run. *)

let solution_to_json (s : solution) =
  Cv_util.Json.Obj
    [ ("objective", Cv_util.Json.Num s.objective);
      ("values", Cv_util.Json.of_float_array s.values) ]

let solution_of_json j =
  { objective = Cv_util.Json.to_float (Cv_util.Json.member "objective" j);
    values = Cv_util.Json.float_array (Cv_util.Json.member "values" j) }

let snapshot_to_json ~nodes ~pruned_max ~incumbent ~incumbent_val frontier_list
    =
  let open Cv_util.Json in
  Obj
    [ ("nodes", of_int nodes);
      ("pruned_max", Num pruned_max);
      ("incumbent_val", Num incumbent_val);
      ( "incumbent",
        match incumbent with None -> Null | Some s -> solution_to_json s );
      ( "frontier",
        List
          (List.map
             (fun (b, fixed) ->
               Obj
                 [ ("bound", Num b);
                   ( "fixed",
                     List
                       (List.map
                          (fun (v, x) -> List [ of_int v; Num x ])
                          fixed) ) ])
             frontier_list) ) ]

(* Raises {!Cv_util.Json.Error} on a malformed snapshot — callers
   surface that as a corrupt checkpoint. *)
let snapshot_of_json j =
  let open Cv_util.Json in
  let nodes = to_int (member "nodes" j) in
  let pruned_max = to_float (member "pruned_max" j) in
  let incumbent_val = to_float (member "incumbent_val" j) in
  let incumbent =
    match member "incumbent" j with
    | Null -> None
    | s -> Some (solution_of_json s)
  in
  let frontier =
    to_list (member "frontier" j)
    |> List.map (fun n ->
           let b = to_float (member "bound" n) in
           let fixed =
             to_list (member "fixed" n)
             |> List.map (fun pair ->
                    match to_list pair with
                    | [ v; x ] -> (to_int v, to_float x)
                    | _ -> raise (Error "Milp: bad fixing in snapshot"))
           in
           (b, fixed))
  in
  (nodes, pruned_max, incumbent, incumbent_val, frontier)

(** [maximize ?cutoff ?known_feasible ?node_limit ?domains p terms]
    maximises [terms] over the mixed-integer feasible set. With
    [cutoff = Some θ]: if the true optimum is ≤ θ the search proves it
    quickly (returns the incumbent optimum or [Below_cutoff]); if some
    integer point exceeds θ the search may return [Cutoff_reached] early
    without closing the gap. [known_feasible] is an externally certified
    feasible objective value (e.g. from evaluating the encoded network
    at a concrete input): it seeds the incumbent for pruning; if the
    search then closes without an explicit incumbent the optimum equals
    the seed and an [Optimal] with empty [values] is returned.
    [domains > 1] solves frontier nodes in parallel batches.

    [checkpoint] snapshots the search state (frontier, incumbent,
    fathomed bounds) at the sink's cadence; [resume] restores such a
    snapshot instead of starting from the root node — the root LP is
    still re-solved (snapshots carry no solver-internal state), after
    which the search continues exactly where the snapshot left off and
    reaches the same verdict as an uninterrupted run. A crashed worker
    dive (including injected {!Cv_util.Fault.Worker_crash}) re-queues
    its node and rebuilds the slot from a pristine solver copy; repeated
    crashes degrade to a certified [Timeout] instead of killing the
    solve. *)
let maximize ?deadline ?cutoff ?known_feasible ?(node_limit = 200_000)
    ?(domains = 1) ?max_iters ?checkpoint ?resume p terms =
  Cv_util.Metrics.incr m_solves;
  Cv_util.Metrics.time t_seconds @@ fun () ->
  Cv_lp.Lp.set_objective p.lp ~maximize:true terms;
  let nworkers = max 1 domains in
  let incumbent = ref None in
  let incumbent_val =
    ref (match known_feasible with Some v -> v | None -> Float.neg_infinity)
  in
  let better_than_cutoff s =
    match cutoff with Some theta -> s.objective > theta +. 1e-7 | None -> false
  in
  (* Take the cached root state: the search owns it until it puts a
     root-optimal state back, so an escaping exception just leaves the
     next solve to compile afresh. *)
  let cached = p.root in
  p.root <- None;
  match
    (try
       let c0 =
         match cached with
         | Some c ->
           Cv_lp.Lp.set_objective_compiled c ~maximize:true terms;
           c
         | None -> Cv_lp.Lp.compile ~fixable:p.binaries p.lp
       in
       `Root (c0, Cv_lp.Lp.solve_compiled ?deadline ?max_iters c0)
     with Cv_util.Deadline.Expired _ ->
       (* Even the root relaxation did not finish: no certified bound. *)
       `Expired)
  with
  | `Expired -> Timeout { bound = Float.infinity; incumbent = None }
  | `Root (_, Cv_lp.Lp.Infeasible) -> Infeasible
  | `Root (_, Cv_lp.Lp.Unbounded) -> Unbounded
  | `Root (_, Cv_lp.Lp.Stalled) ->
    (* Numerical stall on the root: degrade exactly like a root
       timeout. *)
    Cv_util.Metrics.incr m_timeouts;
    Timeout { bound = Float.infinity; incumbent = None }
  | `Root (c0, Cv_lp.Lp.Optimal root) ->
    (* Workers clone the root's compiled state, inheriting its warm
       optimal basis. Slot 0 reuses the root solver itself. *)
    let workers =
      Array.init nworkers (fun i ->
          { wc = (if i = 0 then c0 else Cv_lp.Lp.copy_compiled c0);
            wfixed = [] })
    in
    (* Pristine unfixed solver state, cloned before slot 0's first
       solve mutates [c0] (slots 1.. run on their own copies). A crashed
       dive can leave its slot's rhs out of sync with [wfixed]; a binary
       silently left fixed over-constrains later nodes and could
       unsoundly lower their bounds, so a crashed slot is rebuilt from
       this copy rather than trusted. A search fathomed at its root
       never copies. *)
    let pristine = lazy (Cv_lp.Lp.copy_compiled c0) in
    let crashes = ref 0 in
    (* Best-first frontier keyed by the parent relaxation bound. *)
    let frontier = Cv_util.Heap.create () in
    let nodes = ref 0 in
    let result = ref None in
    (* Largest bound among nodes fathomed by the cutoff — a certified
       upper bound on the optimum within the pruned regions. *)
    let pruned_max = ref Float.neg_infinity in
    (match resume with
    | None -> Cv_util.Heap.push frontier root.Cv_lp.Lp.objective []
    | Some snap ->
      let n0, pm, inc, inc_val, front = snapshot_of_json snap in
      nodes := n0;
      pruned_max := pm;
      (match inc with
      | Some s ->
        incumbent := Some s;
        if better_than_cutoff s && !result = None then
          result := Some (Cutoff_reached s)
      | None -> ());
      incumbent_val := Float.max !incumbent_val inc_val;
      List.iter (fun (b, f) -> Cv_util.Heap.push frontier b f) front);
    let snapshot () =
      snapshot_to_json ~nodes:!nodes ~pruned_max:!pruned_max
        ~incumbent:!incumbent ~incumbent_val:!incumbent_val
        (Cv_util.Heap.to_list frontier)
    in
    (* Budget expiry mid-search: the frontier is bound-ordered, so
       [max (top bound) (pruned bounds) incumbent] is a certified upper
       bound on the true optimum. *)
    let timeout_now () =
      let frontier_bound =
        match Cv_util.Heap.peek frontier with
        | None -> Float.neg_infinity
        | Some (b, _) -> b
      in
      let bound =
        Float.max frontier_bound (Float.max !pruned_max !incumbent_val)
      in
      Cv_util.Metrics.incr m_timeouts;
      result := Some (Timeout { bound; incumbent = !incumbent })
    in
    let prune_bound () =
      match cutoff with
      | Some theta -> Float.max !incumbent_val theta
      | None -> !incumbent_val
    in
    (* One depth-first dive from a popped frontier node, exploring the
       whole subtree on a local LIFO stack. Consecutive solves differ by
       one or two binary fixings, so the dual warm restart needs only a
       few pivots; passed-over siblings stay on the dive's own stack
       rather than the global frontier, because a frontier round-trip
       almost never fathoms them but turns their solve into a distant
       warm restart (many bound moves ⇒ ~7× the pivots — measured).
       Each LP runs with [bound_cutoff]: weak duality stops it as soon
       as the node is provably fathomable. All shared-state effects are
       returned as ordered events, applied later by the driver. *)
    let dive slot budget pb0 node0 =
      Cv_util.Fault.trip Cv_util.Fault.Worker_crash;
      let w = workers.(slot) in
      let events = ref [] in
      let emit e = events := e :: !events in
      (* Incumbents found on this dive prune the rest of it immediately;
         the global incumbent catches up at replay time. *)
      let local_inc = ref Float.neg_infinity in
      let pb () = Float.max pb0 !local_inc in
      let count = ref 0 in
      let stack = ref [ node0 ] in
      (* On an early stop, unprocessed subtree roots go back to the
         frontier so their bounds keep the certified estimate sound. *)
      let flush () =
        List.iter (fun (b, f) -> emit (Epush (b, f))) !stack;
        stack := []
      in
      while !stack <> [] do
        let bound, fixed = List.hd !stack in
        stack := List.tl !stack;
        if bound <= pb () +. 1e-9 then begin
          incr count;
          emit (Efathom bound)
        end
        else if !count >= budget then
          (* Node budget spent: hand the node back unprocessed. *)
          emit (Epush (bound, fixed))
        else begin
          incr count;
          move_to w fixed;
          let bc = pb () in
          let out =
            try
              `Sol
                (if Float.is_finite bc then
                   Cv_lp.Lp.solve_compiled ?deadline ?max_iters
                     ~bound_cutoff:bc w.wc
                 else Cv_lp.Lp.solve_compiled ?deadline ?max_iters w.wc)
            with Cv_util.Deadline.Expired _ -> `Expired
          in
          match out with
          | `Expired | `Sol Cv_lp.Lp.Stalled ->
            (* Deadline or numerical stall: re-queue this node so its
               bound keeps the certified estimate sound. *)
            emit (Estop (bound, fixed));
            flush ()
          | `Sol Cv_lp.Lp.Unbounded ->
            emit Eunbounded;
            flush ()
          | `Sol Cv_lp.Lp.Infeasible -> ()
          | `Sol (Cv_lp.Lp.Optimal sol) ->
            let b = sol.Cv_lp.Lp.objective in
            if b <= pb () +. 1e-9 then
              (* Also the landing spot of a [bound_cutoff] early stop:
                 [b] is then just a certified bound (the basis may be
                 primal-infeasible), which is all fathoming reads. *)
              emit (Efathom b)
            else (
              match pick_branch_var p.binaries sol.Cv_lp.Lp.values with
              | None ->
                if b > !local_inc then local_inc := b;
                emit (Eincumbent { objective = b; values = sol.Cv_lp.Lp.values })
              | Some v ->
                (* Plunge towards the relaxation's rounding; the sibling
                   waits right below on the stack. *)
                let first = if sol.Cv_lp.Lp.values.(v) >= 0.5 then 1. else 0. in
                stack :=
                  (b, (v, first) :: fixed)
                  :: (b, (v, 1. -. first) :: fixed)
                  :: !stack)
        end
      done;
      (!count, List.rev !events)
    in
    while
      !result = None
      && (not (Cv_util.Heap.is_empty frontier))
      && !nodes < node_limit
    do
      if Cv_util.Deadline.expired_opt deadline then timeout_now ()
      else begin
        (* Snapshot at the top of the batch loop: no dive is in flight,
           so the frontier + incumbent are the complete search state. *)
        Cv_util.Checkpoint.tick_opt checkpoint snapshot;
        let pb0 = prune_bound () in
        (* Pop up to [nworkers] dive roots; each dive re-checks bounds
           itself, so no fathom test here. *)
        let batch = ref [] and k = ref 0 in
        while !k < nworkers && not (Cv_util.Heap.is_empty frontier) do
          match Cv_util.Heap.pop frontier with
          | None -> ()
          | Some node ->
            batch := node :: !batch;
            incr k
        done;
        let batch = List.rev !batch in
        (* Slot 0 dives on [c0] itself: copy the root state first if its
           node beats the prune bound, i.e. is about to be solved. *)
        (match batch with
        | (b, _) :: _ when b > pb0 +. 1e-9 -> ignore (Lazy.force pristine)
        | _ -> ());
        let budget = max 1 ((node_limit - !nodes) / max 1 !k) in
        (* Each dive is crash-isolated: an exception (a poisoned worker,
           an injected fault) becomes [Error] for that slot only. *)
        let dives =
          match batch with
          | [] -> []
          | [ node ] -> (
            [ (try Ok (dive 0 budget pb0 node) with exn -> Error exn) ])
          | _ ->
            Cv_util.Parallel.map_results_list ~domains:nworkers
              (fun (slot, node) -> dive slot budget pb0 node)
              (List.mapi (fun i node -> (i, node)) batch)
        in
        (* Replay dive effects in batch order — the deterministic part:
           incumbent and bound updates happen in the same order whatever
           the domain count. *)
        let stopped = ref false in
        List.iteri
          (fun slot outcome ->
            match outcome with
            | Error (Cv_util.Deadline.Expired _) ->
              (* Dives catch expiry themselves; one escaping here means
                 it fired outside the solve call — treat as a stop. *)
              let b, f = List.nth batch slot in
              Cv_util.Heap.push frontier b f;
              stopped := true
            | Error exn ->
              (* The dive died: its node goes back to the frontier (the
                 bound keeps the certified estimate sound) and its slot
                 is rebuilt from the pristine copy — a crashed [move_to]
                 can leave rhs and [wfixed] out of sync, and a silently
                 stuck fixing could unsoundly lower later bounds. *)
              Cv_util.Metrics.incr m_crashes;
              Logs.warn (fun m ->
                  m "milp: worker dive crashed (%s); node re-queued"
                    (Printexc.to_string exn));
              incr crashes;
              let b, f = List.nth batch slot in
              Cv_util.Heap.push frontier b f;
              workers.(slot) <-
                { wc = Cv_lp.Lp.copy_compiled (Lazy.force pristine);
                  wfixed = [] }
            | Ok (count, events) ->
              nodes := !nodes + count;
              Cv_util.Metrics.add m_nodes count;
              List.iter
                (fun ev ->
                  match ev with
                  | Epush (b, f) -> Cv_util.Heap.push frontier b f
                  | Efathom b ->
                    Cv_util.Metrics.incr m_fathomed;
                    pruned_max := Float.max !pruned_max b
                  | Eincumbent s ->
                    if s.objective > !incumbent_val then begin
                      Cv_util.Metrics.incr m_incumbents;
                      incumbent_val := s.objective;
                      incumbent := Some s
                    end;
                    if !result = None && better_than_cutoff s then
                      result := Some (Cutoff_reached s)
                  | Eunbounded ->
                    if !result = None then result := Some Unbounded
                  | Estop (b, f) ->
                    Cv_util.Heap.push frontier b f;
                    stopped := true)
                events)
          dives;
        if !result = None && !crashes > max_dive_crashes then
          (* Persistently poisoned workers: degrade to the certified
             bound instead of spinning on re-queued nodes forever. *)
          timeout_now ();
        if !result = None && !stopped then timeout_now ()
      end
    done;
    (* No dive runs past this point: keep a root-optimal state for the
       next solve on this problem. *)
    p.root <- Some (if Lazy.is_val pristine then Lazy.force pristine else c0);
    (match !result with
    | Some r -> r
    | None -> (
      if !nodes >= node_limit && not (Cv_util.Heap.is_empty frontier) then begin
        (* Node budget exhausted: degrade to the certified bound instead
           of dying — same contract as a wall-clock timeout. *)
        timeout_now ();
        match !result with Some r -> r | None -> assert false
      end
      else
        let ub = Float.max !pruned_max !incumbent_val in
        match (cutoff, !incumbent) with
        | Some theta, _ when ub <= theta +. 1e-7 ->
          (* Search exhausted without beating the cutoff: the optimum is
             provably at most max(pruned bounds, incumbent). *)
          if ub = Float.neg_infinity then Infeasible else Below_cutoff ub
        | _, Some s -> Optimal s
        | _, None -> (
          (* No cutoff, or [known_feasible] beat it and every node was
             pruned against the seed: an optimisation answer. *)
          match known_feasible with
          | Some v when !pruned_max <= v +. 1e-9 ->
            (* Everything was fathomed against the seed: the seed is the
               optimum (no explicit solution vector available). *)
            Optimal { objective = v; values = [||] }
          | _ -> Infeasible)))

(** [minimize ?cutoff ?known_feasible ?node_limit ?domains p terms]
    minimises by negating the objective. Snapshots stay in the internal
    (negated) objective space, so a [checkpoint] written by a minimise
    call resumes correctly through [resume] of another minimise call. *)
let minimize ?deadline ?cutoff ?known_feasible ?node_limit ?domains ?max_iters
    ?checkpoint ?resume p terms =
  let neg_terms = List.map (fun (c, v) -> (-.c, v)) terms in
  let neg_cutoff = Option.map (fun t -> -.t) cutoff in
  let neg_known = Option.map (fun t -> -.t) known_feasible in
  match
    maximize ?deadline ?cutoff:neg_cutoff ?known_feasible:neg_known ?node_limit
      ?domains ?max_iters ?checkpoint ?resume p neg_terms
  with
  | Optimal s -> Optimal { s with objective = -.s.objective }
  | Cutoff_reached s -> Cutoff_reached { s with objective = -.s.objective }
  | Below_cutoff ub -> Below_cutoff (-.ub)
  | Infeasible -> Infeasible
  | Unbounded -> Unbounded
  | Timeout { bound; incumbent } ->
    Timeout
      { bound = -.bound;
        incumbent =
          Option.map (fun s -> { s with objective = -.s.objective }) incumbent }
