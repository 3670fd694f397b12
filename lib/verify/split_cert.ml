(** Split certificates: the bisection tree of a ReluVal-style proof,
    kept as a reusable artifact.

    When the splitting verifier proves [∀x ∈ B : f(x) ∈ T], the proof is
    a partition of [B] into leaf boxes on each of which one-shot
    symbolic-interval analysis suffices. That leaf list is itself a
    proof artifact — the closest analogue of what a ReluVal run leaves
    behind — and it supports cheap revalidation: for a fine-tuned [f'],
    re-running the one-shot analysis per leaf (no new splitting) usually
    succeeds, because each leaf was chosen precisely so the abstraction
    is tight there. See {!Cv_core.Svbtv} for the reuse route. *)

type t = {
  input_box : Cv_interval.Box.t;  (** the certified domain *)
  target : Cv_interval.Box.t;  (** the certified output set *)
  leaves : Cv_interval.Box.t array;  (** partition of [input_box] *)
}

let m_splits = Cv_util.Metrics.counter "splitcert.splits"

let m_leaves_checked = Cv_util.Metrics.counter "splitcert.leaves_checked"

(* Core splitting proof, also reporting how many splits were spent —
   [repair] uses this to share one budget across several re-proofs. *)
let prove_counted ?deadline ~budget net ~input_box ~target =
  let splits = ref 0 in
  let leaves = ref [] in
  let exception Failed in
  let rec go box =
    Cv_util.Deadline.check_opt deadline;
    let reach =
      Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint net box
    in
    if Cv_interval.Box.subset_tol reach target then leaves := box :: !leaves
    else if !splits >= budget || Cv_interval.Box.max_width box <= 1e-9 then
      raise Failed
    else begin
      incr splits;
      Cv_util.Metrics.incr m_splits;
      let left, right = Cv_interval.Box.split box in
      go left;
      go right
    end
  in
  match go input_box with
  | () -> Some (Array.of_list !leaves, !splits)
  | exception Failed -> None
  | exception Cv_util.Deadline.Expired _ -> None

(** [prove ?deadline ?budget net ~input_box ~target] runs the splitting
    verifier and, on success, returns the certificate with its leaf
    partition. [None] when the property is not proved within the split
    budget (or is falsified), or when the optional [deadline] — polled
    once per split — expires mid-proof: an interrupted proof attempt has
    produced nothing reusable, so expiry degrades to [None] rather than
    raising. *)
let prove ?deadline ?(budget = 4096) net ~input_box ~target =
  match prove_counted ?deadline ~budget net ~input_box ~target with
  | Some (leaves, _) -> Some { input_box; target; leaves }
  | None -> None

(** [num_leaves c] is the partition size (1 = no splitting was
    needed). *)
let num_leaves c = Array.length c.leaves

(** [revalidate ?domains c net'] re-checks every leaf against the
    stored target with one-shot symbolic intervals on [net'] — no
    splitting, embarrassingly parallel. [true] proves
    [∀x ∈ input_box : net'(x) ∈ target]. *)
let revalidate ?domains c net' =
  Cv_util.Parallel.for_all ?domains
    (fun leaf ->
      Cv_util.Metrics.incr m_leaves_checked;
      Cv_interval.Box.subset_tol
        (Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint net' leaf)
        c.target)
    c.leaves

(** [revalidate_detailed ?domains c net'] also reports which leaves
    failed (for diagnostics / selective re-splitting). *)
let revalidate_detailed ?domains c net' =
  let results =
    Cv_util.Parallel.map ?domains
      (fun leaf ->
        Cv_util.Metrics.incr m_leaves_checked;
        Cv_interval.Box.subset_tol
          (Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint net' leaf)
          c.target)
      c.leaves
  in
  let failed = ref [] in
  Array.iteri (fun i ok -> if not ok then failed := i :: !failed) results;
  List.rev !failed

(** [repair_detailed ?deadline ?budget ?domains c net'] re-splits only
    the failed leaves for the new network, returning an updated
    certificate for [net'] with the indices of the leaves it re-split
    ([None] when the failed leaves cannot all be re-proved within
    the budget or before the deadline). [budget] is shared across every
    re-proof — the total number of new splits a repair may spend,
    however many leaves failed — so the worst case stays [budget] rather
    than growing with the failure count. [domains] parallelises the
    initial revalidation sweep. Cheap when fine-tuning invalidated only
    a few leaves. *)
let repair_detailed ?deadline ?(budget = 1024) ?domains c net' =
  let failed = revalidate_detailed ?domains c net' in
  let is_failed = Array.make (Array.length c.leaves) false in
  List.iter (fun i -> is_failed.(i) <- true) failed;
  let keep = ref [] in
  Array.iteri (fun i leaf -> if not is_failed.(i) then keep := leaf :: !keep)
    c.leaves;
  let rec reprove remaining acc = function
    | [] -> Some acc
    | idx :: rest -> (
      match
        prove_counted ?deadline ~budget:remaining net'
          ~input_box:c.leaves.(idx) ~target:c.target
      with
      | Some (leaves, used) ->
        reprove (remaining - used) (Array.to_list leaves @ acc) rest
      | None -> None)
  in
  match reprove budget !keep failed with
  | Some leaves -> Some ({ c with leaves = Array.of_list leaves }, failed)
  | None -> None

(** [repair ?deadline ?budget ?domains c net'] is {!repair_detailed}
    without the failed-leaf indices. *)
let repair ?deadline ?budget ?domains c net' =
  Option.map fst (repair_detailed ?deadline ?budget ?domains c net')

(** [to_json c] / [of_json j] persist the certificate. *)
let to_json c =
  Cv_util.Json.Obj
    [ ("input_box", Cv_interval.Box.to_json c.input_box);
      ("target", Cv_interval.Box.to_json c.target);
      ( "leaves",
        Cv_util.Json.List
          (Array.to_list (Array.map Cv_interval.Box.to_json c.leaves)) ) ]

let of_json j =
  let open Cv_util.Json in
  { input_box = Cv_interval.Box.of_json (member "input_box" j);
    target = Cv_interval.Box.of_json (member "target" j);
    leaves =
      member "leaves" j |> to_list |> List.map Cv_interval.Box.of_json
      |> Array.of_list }
