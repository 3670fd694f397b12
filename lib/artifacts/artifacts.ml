(** Proof artifacts: what a completed verification leaves behind for
    reuse.

    The paper assumes the original proof of [φ(f, D_in, D_out)] is
    stored in one or more of three forms — layer-wise state abstractions
    [S_1..S_n], a Lipschitz constant ℓ, and a network abstraction f̂.
    This module bundles them with provenance metadata and (de)serialises
    the bundle, so a verification session can be resumed in a later
    engineering iteration (the whole point of continuous
    verification). *)

type t = {
  property : Cv_verify.Property.t;  (** the proved property *)
  state_abstractions : Cv_interval.Box.t array option;
      (** [S_1..S_n], inductive per-layer boxes with [S_n ⊆ D_out] *)
  lipschitz : (string * float) list;
      (** named Lipschitz constants, e.g. [("Linf", ℓ)] *)
  split_cert : Cv_verify.Split_cert.t option;
      (** bisection-tree certificate of a splitting (ReluVal-style)
          proof, revalidatable for fine-tuned networks *)
  network_fingerprint : string;  (** hash of the proved network *)
  solver : string;  (** engine that established the proof *)
  solve_seconds : float;  (** original verification cost *)
}

(* The digest's activation tag: the display name, except that a
   leaky-ReLU slope is written as its IEEE-754 bits — [to_string]'s
   [%g] would give slopes 0.1 and 0.1000001 one fingerprint. *)
let act_tag = function
  | Cv_nn.Activation.Leaky_relu slope ->
    Printf.sprintf "leaky_relu[%016Lx]" (Int64.bits_of_float slope)
  | act -> Cv_nn.Activation.to_string act

(* The digest input in one pre-sized buffer: per layer the activation
   tag, the shape, then weights and biases as little-endian bit
   patterns. *)
let digest_input net =
  let layers = Cv_nn.Network.layers net in
  let tags = Array.map (fun (l : Cv_nn.Layer.t) -> act_tag l.Cv_nn.Layer.act) layers in
  let size = ref 0 in
  Array.iteri
    (fun i (l : Cv_nn.Layer.t) ->
      let w = l.Cv_nn.Layer.weights in
      size :=
        !size + String.length tags.(i) + 16
        + (8 * Cv_linalg.Mat.rows w * Cv_linalg.Mat.cols w)
        + (8 * Array.length l.Cv_nn.Layer.bias))
    layers;
  let buf = Bytes.create !size in
  let pos = ref 0 in
  let add_bits x =
    Bytes.set_int64_le buf !pos (Int64.bits_of_float x);
    pos := !pos + 8
  in
  Array.iteri
    (fun i (l : Cv_nn.Layer.t) ->
      Bytes.blit_string tags.(i) 0 buf !pos (String.length tags.(i));
      pos := !pos + String.length tags.(i);
      let w = l.Cv_nn.Layer.weights in
      Bytes.set_int64_le buf !pos (Int64.of_int (Cv_linalg.Mat.rows w));
      Bytes.set_int64_le buf (!pos + 8) (Int64.of_int (Cv_linalg.Mat.cols w));
      pos := !pos + 16;
      Array.iter add_bits (Cv_linalg.Mat.unsafe_data w);
      Array.iter add_bits l.Cv_nn.Layer.bias)
    layers;
  buf

(* Fingerprints are memoized on the physical identity of the network
   value, under the invariant {!Cv_nn.Layer.prepare} already relies on:
   nothing mutates a network after [Network.make]. A batch then hashes
   each network once, not once per job; the ephemeron table lets
   entries die with their network. *)
module Memo = Ephemeron.K1.Make (struct
  type t = Cv_nn.Network.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let memo : string Memo.t = Memo.create 16
let memo_mutex = Mutex.create ()

(** [fingerprint net] is a stable hash of a network's architecture and
    parameters, used to detect artifact/network mismatches and as the
    artifact-cache key. Weights, biases and leaky-ReLU slopes are hashed
    as raw IEEE-754 bit patterns — exact, and an order of magnitude
    faster than decimal formatting. Layer shapes are part of the digest
    so two layers with the same flattened weight stream but different
    dimensions cannot collide. Computed once per network value.

    The result carries a scheme-version prefix ([v2:]): the raw-bits
    hash deliberately differs from the decimal-rendering scheme it
    replaced, so artifacts and checkpoints recorded under the old
    scheme fail to match and must be regenerated — the prefix makes
    that an explicit version break rather than apparent network
    drift. One change was made inside [v2:]: a leaky-ReLU slope used to
    enter as its [%g] rendering, which let distinct slopes collide. A
    leaky network's artifacts and checkpoints recorded under that tag
    are therefore refused as belonging to a different network, not as
    a version break, and must be regenerated with [contiver verify];
    networks without leaky-ReLU layers kept their fingerprints. *)
let fingerprint net =
  match Mutex.protect memo_mutex (fun () -> Memo.find_opt memo net) with
  | Some fp -> fp
  | None ->
    (* Hashed outside the lock: concurrent first calls on one network
       compute the same string, and the table keeps one of them. *)
    let fp = "v2:" ^ Digest.to_hex (Digest.bytes (digest_input net)) in
    Mutex.protect memo_mutex (fun () -> Memo.replace memo net fp);
    fp

(** [make ~property ~net ~solver ~solve_seconds ()] builds an artifact
    bundle; state abstractions and Lipschitz constants are optional and
    can be attached later. *)
let make ?state_abstractions ?(lipschitz = []) ?split_cert ~property ~net
    ~solver ~solve_seconds () =
  { property;
    state_abstractions;
    lipschitz;
    split_cert;
    network_fingerprint = fingerprint net;
    solver;
    solve_seconds }

(** [matches t net] is true when the artifact was produced for exactly
    this network. *)
let matches t net = String.equal t.network_fingerprint (fingerprint net)

(** [lipschitz_for t norm] looks up a stored constant by norm name. *)
let lipschitz_for t norm = List.assoc_opt norm t.lipschitz

(** [with_lipschitz t norm value] records one more constant. *)
let with_lipschitz t norm value =
  { t with lipschitz = (norm, value) :: List.remove_assoc norm t.lipschitz }

(** [final_abstraction t] is [S_n] when state abstractions are
    present. *)
let final_abstraction t =
  Option.map (fun s -> s.(Array.length s - 1)) t.state_abstractions

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let to_json t =
  let open Cv_util.Json in
  Obj
    [ ("format", Str "contiver-proof");
      ("version", of_int 1);
      ("property", Cv_verify.Property.to_json t.property);
      ( "state_abstractions",
        match t.state_abstractions with
        | None -> Null
        | Some s -> List (Array.to_list (Array.map Cv_interval.Box.to_json s)) );
      ( "lipschitz",
        Obj (List.map (fun (k, v) -> (k, Num v)) t.lipschitz) );
      ( "split_cert",
        match t.split_cert with
        | None -> Null
        | Some c -> Cv_verify.Split_cert.to_json c );
      ("network_fingerprint", Str t.network_fingerprint);
      ("solver", Str t.solver);
      ("solve_seconds", Num t.solve_seconds) ]

let of_json j =
  let open Cv_util.Json in
  (match member_opt "format" j with
  | Some (Str "contiver-proof") -> ()
  | _ -> raise (Error "Artifacts: not a contiver-proof document"));
  { property = Cv_verify.Property.of_json (member "property" j);
    state_abstractions =
      (match member "state_abstractions" j with
      | Null -> None
      | List boxes -> Some (Array.of_list (List.map Cv_interval.Box.of_json boxes))
      | _ -> raise (Error "Artifacts: bad state_abstractions"));
    lipschitz =
      (match member "lipschitz" j with
      | Obj kvs -> List.map (fun (k, v) -> (k, to_float v)) kvs
      | _ -> raise (Error "Artifacts: bad lipschitz"));
    split_cert =
      (match member_opt "split_cert" j with
      | None | Some Null -> None
      | Some c -> Some (Cv_verify.Split_cert.of_json c));
    network_fingerprint = to_str (member "network_fingerprint" j);
    solver = to_str (member "solver" j);
    solve_seconds = to_float (member "solve_seconds" j) }

(* On-disk envelope (format version 2): the version-1 document becomes
   the [payload] member, protected by an MD5 checksum of its canonical
   serialisation. Version-1 files (bare documents without an envelope)
   are still accepted on load, without integrity checking. *)
let envelope_version = 2

(* The checksum is the MD5 of the payload's compact rendering. *)
let checksum rendered = Digest.to_hex (Digest.string rendered)

(** [save_doc ~format path payload] writes any JSON payload inside the
    checksummed envelope through the store's one atomic durable writer
    ({!Atomic_write.write}: unique tmp file, fsync, rename — crash
    mid-write never damages the target, concurrent writers never clobber
    each other). The payload is rendered once: the checksum is taken
    over that rendering and the same bytes are spliced in as the last
    member, so the file is exactly [Json.to_string] of the envelope
    object. *)
let save_doc ~format path payload =
  let rendered = Cv_util.Json.to_string payload in
  let buf = Buffer.create (String.length rendered + 128) in
  Cv_util.Json.to_buffer buf
    (Cv_util.Json.Obj
       [ ("format", Cv_util.Json.Str format);
         ("version", Cv_util.Json.of_int envelope_version);
         ("checksum", Cv_util.Json.Str (checksum rendered)) ]);
  (* Reopen the object: drop its closing brace, append the payload. *)
  Buffer.truncate buf (Buffer.length buf - 1);
  Buffer.add_string buf ",\"payload\":";
  Buffer.add_string buf rendered;
  Buffer.add_char buf '}';
  Atomic_write.write path (Buffer.contents buf)

(** [save path t] writes the artifact bundle via {!save_doc}. *)
let save path t = save_doc ~format:"contiver-proof" path (to_json t)

type load_error =
  | File_error of string  (** the file cannot be opened or read *)
  | Corrupt of string
      (** malformed JSON, checksum mismatch, or schema violation *)

(** [load_error_message e] renders a one-line diagnosis. *)
let load_error_message = function
  | File_error msg -> msg
  | Corrupt msg -> msg

(** [load_doc_result ~format path] reads a document written by
    {!save_doc}, validating the envelope (version, declared format, MD5
    checksum) and returning the payload. Bare documents without an
    envelope come back whole, without integrity checking — the caller's
    schema parse is their only guard (the version-1 artifact
    behaviour). *)
let load_doc_result ~format path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (File_error msg)
  | content -> (
    match Cv_util.Json.parse content with
    | exception Cv_util.Json.Error msg ->
      Error (Corrupt (Printf.sprintf "%s: malformed JSON (%s)" path msg))
    | j -> (
      try
        match Cv_util.Json.member_opt "payload" j with
        | Some payload ->
          let version = Cv_util.Json.to_int (Cv_util.Json.member "version" j) in
          let declared =
            Cv_util.Json.to_str (Cv_util.Json.member "format" j)
          in
          if version <> envelope_version then
            Error
              (Corrupt
                 (Printf.sprintf "%s: unsupported envelope version %d" path
                    version))
          else if not (String.equal declared format) then
            Error
              (Corrupt
                 (Printf.sprintf "%s: expected a %s document, found %s" path
                    format declared))
          else begin
            let stored = Cv_util.Json.to_str (Cv_util.Json.member "checksum" j) in
            let actual = checksum (Cv_util.Json.to_string payload) in
            if not (String.equal stored actual) then
              Error
                (Corrupt
                   (Printf.sprintf
                      "%s: checksum mismatch (stored %s, computed %s)" path
                      stored actual))
            else Ok payload
          end
        | None ->
          (* Bare version-1 document. *)
          Ok j
      with Cv_util.Json.Error msg -> Error (Corrupt (path ^ ": " ^ msg))))

(** [load_result path] reads an artifact bundle written by {!save},
    returning a typed error instead of raising: [File_error] for I/O
    problems, [Corrupt] for malformed/truncated JSON, a checksum
    mismatch, or a schema violation. Bare version-1 documents (no
    envelope) are accepted without integrity checking. *)
let load_result path =
  match load_doc_result ~format:"contiver-proof" path with
  | Error _ as e -> e
  | Ok payload -> (
    try Ok (of_json payload)
    with Cv_util.Json.Error msg -> Error (Corrupt (path ^ ": " ^ msg)))

(** [load path] reads an artifact bundle, raising on any failure —
    prefer {!load_result} for typed error handling. *)
let load path =
  match load_result path with
  | Ok t -> t
  | Error (File_error msg) -> raise (Sys_error msg)
  | Error (Corrupt msg) -> raise (Cv_util.Json.Error msg)
