(** Named atomic counters and cumulative timers (see the interface for
    the contract and naming convention). *)

type counter = { c_name : string; cell : int Atomic.t }

type timer = { t_name : string; acc : float Atomic.t }

(* Registry creation is rare (module-initialisation time, first use of a
   name); reads and increments never touch the mutex. *)
let mutex = Mutex.create ()

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64

let timers_tbl : (string, timer) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
        let c = { c_name = name; cell = Atomic.make 0 } in
        Hashtbl.add counters_tbl name c;
        c)

let incr c = ignore (Atomic.fetch_and_add c.cell 1)

let add c n = ignore (Atomic.fetch_and_add c.cell n)

let value c = Atomic.get c.cell

let timer name =
  locked (fun () ->
      match Hashtbl.find_opt timers_tbl name with
      | Some t -> t
      | None ->
        let t = { t_name = name; acc = Atomic.make 0. } in
        Hashtbl.add timers_tbl name t;
        t)

(* Float cells lack fetch_and_add: CAS loop (uncontended in practice —
   each engine owns its timers). *)
let add_seconds t s =
  let rec loop () =
    let cur = Atomic.get t.acc in
    if not (Atomic.compare_and_set t.acc cur (cur +. s)) then loop ()
  in
  loop ()

let time t f =
  let t0 = Clock.now () in
  Fun.protect ~finally:(fun () -> add_seconds t (Clock.now () -. t0)) f

let seconds t = Atomic.get t.acc

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters_tbl;
      Hashtbl.iter (fun _ t -> Atomic.set t.acc 0.) timers_tbl)

let sorted_of_tbl tbl get =
  locked (fun () -> Hashtbl.fold (fun _ v acc -> get v :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () = sorted_of_tbl counters_tbl (fun c -> (c.c_name, value c))

let timers () = sorted_of_tbl timers_tbl (fun t -> (t.t_name, seconds t))

let to_json () =
  Json.Obj
    [ ( "counters",
        Json.Obj
          (List.filter_map
             (fun (name, v) ->
               if v = 0 then None else Some (name, Json.Num (float_of_int v)))
             (counters ())) );
      ( "timers",
        Json.Obj
          (List.filter_map
             (fun (name, s) -> if s = 0. then None else Some (name, Json.Num s))
             (timers ())) ) ]

(* Group rows by the engine prefix (text before the first '.'). *)
let engine_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let table () =
  let rows =
    List.filter_map
      (fun (name, v) ->
        if v = 0 then None else Some (name, Printf.sprintf "%d" v))
      (counters ())
    @ List.filter_map
        (fun (name, s) ->
          if s = 0. then None else Some (name, Printf.sprintf "%.6fs" s))
        (timers ())
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  if rows = [] then ""
  else begin
    let buf = Buffer.create 512 in
    let width =
      List.fold_left (fun w (name, _) -> max w (String.length name)) 0 rows
    in
    let last_engine = ref "" in
    List.iter
      (fun (name, v) ->
        let engine = engine_of name in
        if engine <> !last_engine then begin
          if !last_engine <> "" then Buffer.add_char buf '\n';
          Buffer.add_string buf (Printf.sprintf "[%s]\n" engine);
          last_engine := engine
        end;
        Buffer.add_string buf (Printf.sprintf "  %-*s %s\n" width name v))
      rows;
    Buffer.contents buf
  end

let word_bytes = float_of_int (Sys.word_size / 8)

let allocated_bytes () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. word_bytes
