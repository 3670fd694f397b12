(** Fault injection for robustness testing.

    The continuous-verification loop must degrade gracefully when a
    solver dies, a deadline collapses to zero, or an artifact write is
    interrupted mid-flight. Those conditions are hard to provoke
    organically, so the modules involved poll this registry at the
    matching fault point and simulate the failure when the point is
    armed. Tier-1 tests arm points programmatically; operators can arm
    them for a whole run via the [CONTIVER_FAULTS] environment variable
    (comma-separated point specs, e.g.
    [CONTIVER_FAULTS=truncate-artifact,solver-failure:once,worker-crash:every=7]).

    The registry is global, mutable state — intended for tests and
    chaos drills, never for production configuration. *)

(** Raised by a fault hook standing in for an unexpected engine death
    (distinct from [Failure] so tests can assert the injected origin). *)
exception Injected of string

(** Raised where an injected fault stands in for the death of the whole
    process ([Kill_mid_checkpoint]). Unlike {!Injected} it is not a
    transient failure: nothing retries it or degrades it to a verdict,
    so it ends the process as a real kill would. *)
exception Killed of string

type point =
  | Solver_failure  (** simplex raises mid-solve, as on numerical death *)
  | Truncate_artifact  (** artifact writes stop halfway through *)
  | Deadline_zero  (** every new deadline is created already expired *)
  | Kill_mid_checkpoint
      (** the process dies halfway through a durable write: the tmp file
          is abandoned and the writer raises {!Killed}, leaving the
          previous document intact *)
  | Worker_crash  (** a parallel branch-and-bound worker domain dies *)
  | Spurious_solver_error
      (** the warm-restart path fails transiently; a retry succeeds *)
  | Alloc_failure  (** solver arena allocation fails, as on OOM *)

let all_points =
  [ Solver_failure; Truncate_artifact; Deadline_zero; Kill_mid_checkpoint;
    Worker_crash; Spurious_solver_error; Alloc_failure ]

(** [point_name p] / [point_of_string s] name fault points for the
    environment variable and log lines. *)
let point_name = function
  | Solver_failure -> "solver-failure"
  | Truncate_artifact -> "truncate-artifact"
  | Deadline_zero -> "deadline-zero"
  | Kill_mid_checkpoint -> "kill-mid-checkpoint"
  | Worker_crash -> "worker-crash"
  | Spurious_solver_error -> "spurious-solver-error"
  | Alloc_failure -> "alloc-failure"

let point_of_string s =
  List.find_opt (fun p -> String.equal (point_name p) s) all_points

(** How often an armed point fires when polled. [Always] fires on every
    poll (the historical behaviour), [Once] fires on the first poll then
    disarms itself, [Every n] fires on every [n]-th poll — the staple of
    chaos campaigns, where a fault must strike mid-run rather than at
    the first opportunity. *)
type mode = Always | Once | Every of int

let mode_name = function
  | Always -> "always"
  | Once -> "once"
  | Every n -> Printf.sprintf "every=%d" n

type state = { mode : mode; mutable polls : int; mutable fired : bool }

let armed : (point, state) Hashtbl.t = Hashtbl.create 8

(* The registry is polled from parallel worker domains (e.g.
   [Worker_crash] inside branch-and-bound dives); a single mutex keeps
   poll counting well-defined. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(** [enable ?mode p] / [disable p] arm and disarm a fault point. *)
let enable ?(mode = Always) p =
  (match mode with
  | Every n when n < 1 -> invalid_arg "Fault.enable: Every n requires n >= 1"
  | _ -> ());
  locked (fun () ->
      Hashtbl.replace armed p { mode; polls = 0; fired = false })

let disable p = locked (fun () -> Hashtbl.remove armed p)

(** [reset ()] disarms every point (tests call this in teardown). *)
let reset () = locked (fun () -> Hashtbl.reset armed)

(** [enabled p] is true when the point is armed and still live (a [Once]
    point that has already fired no longer counts). *)
let enabled p =
  locked (fun () ->
      match Hashtbl.find_opt armed p with
      | None -> None
      | Some st -> Some st)
  |> function
  | None -> false
  | Some st -> not (st.mode = Once && st.fired)

(** [fires p] is the consuming poll: true when the armed point strikes
    at this particular call site visit, advancing the point's internal
    poll counter. [Always] strikes every time, [Once] exactly once,
    [Every n] on every [n]-th poll. *)
let fires p =
  locked (fun () ->
      match Hashtbl.find_opt armed p with
      | None -> false
      | Some st -> (
        match st.mode with
        | Always -> true
        | Once ->
          if st.fired then false
          else begin
            st.fired <- true;
            true
          end
        | Every n ->
          st.polls <- st.polls + 1;
          st.polls mod n = 0))

(** [trip p] raises {!Injected} when [p] is armed and strikes on this
    poll; fault points that simulate a crash call this. *)
let trip p = if fires p then raise (Injected (point_name p ^ " (injected)"))

(** [with_fault ?mode p f] runs [f] with [p] armed, disarming it
    afterwards even on exceptions — the test-suite idiom. *)
let with_fault ?mode p f =
  enable ?mode p;
  Fun.protect ~finally:(fun () -> disable p) f

let parse_spec spec =
  match String.index_opt spec ':' with
  | None -> (spec, Some Always)
  | Some i ->
    let name = String.sub spec 0 i in
    let m = String.sub spec (i + 1) (String.length spec - i - 1) in
    let mode =
      if String.equal m "once" then Some Once
      else if String.equal m "always" then Some Always
      else
        match String.split_on_char '=' m with
        | [ "every"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 1 -> Some (Every n)
          | _ -> None)
        | _ -> None
    in
    (name, mode)

(** [init_from_env ()] arms the points listed in [CONTIVER_FAULTS]
    (specs [name], [name:once], [name:every=N]); unknown names or modes
    are ignored with a note on stderr. Called by the CLI at startup. *)
let init_from_env () =
  match Sys.getenv_opt "CONTIVER_FAULTS" with
  | None | Some "" -> ()
  | Some spec ->
    String.split_on_char ',' spec
    |> List.iter (fun item ->
           let item = String.trim item in
           if item <> "" then
             let name, mode = parse_spec item in
             match (point_of_string name, mode) with
             | Some p, Some mode -> enable ~mode p
             | _ ->
               Printf.eprintf "contiver: unknown fault spec %S ignored\n%!"
                 item)

(** [plan ~seed ~rounds ~points] draws a deterministic chaos campaign: a
    list of [rounds] fault sequences, each arming between one and three
    of [points] with randomly drawn modes. The same seed always yields
    the same campaign, so a failing round is reproducible from its seed
    alone. *)
let plan ~seed ~rounds ~points =
  if rounds < 0 then invalid_arg "Fault.plan: rounds must be non-negative";
  let points = Array.of_list points in
  if Array.length points = 0 then invalid_arg "Fault.plan: no points";
  let rng = Rng.create (0x6661756c (* "faul" *) lxor seed) in
  List.init rounds (fun _ ->
      let n = 1 + Rng.int rng (Int.min 3 (Array.length points)) in
      List.init n (fun _ ->
          let p = Rng.choice rng points in
          let mode =
            match Rng.int rng 3 with
            | 0 -> Always
            | 1 -> Once
            | _ -> Every (2 + Rng.int rng 6)
          in
          (p, mode))
      (* Arming the same point twice keeps the last spec — dedup so the
         round reads unambiguously in logs. *)
      |> List.fold_left
           (fun acc (p, m) ->
             if List.mem_assoc p acc then acc else (p, m) :: acc)
           []
      |> List.rev)
