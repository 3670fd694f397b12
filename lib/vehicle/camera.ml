(** Synthetic forward-facing camera.

    Substitutes the paper's 224×224 RGB camera with a low-resolution
    grayscale ground-projection: each image row corresponds to a ground
    distance ahead of the vehicle (closer at the bottom), and the lane
    centerline paints a bright ridge at the column where the track sits
    at that distance. Environment conditions (brightness offset, noise)
    are explicit so that a deployment-time condition shift produces
    genuine out-of-distribution feature values — the paper's "black
    swan" trigger for domain enlargement. *)

type config = {
  width : int;
  height : int;
  fov : float;  (** horizontal field of view in radians *)
  near : float;  (** ground distance of the bottom row *)
  far : float;  (** ground distance of the top row *)
  lane_sigma : float;  (** ridge thickness as a fraction of image width *)
}

(** Defaults sized so the verified head stays solver-friendly. *)
let default_config =
  { width = 12; height = 8; fov = 1.2; near = 0.4; far = 3.0; lane_sigma = 0.09 }

(** Operating conditions; shifting these simulates lighting/weather
    changes between data collection and deployment. *)
type conditions = {
  brightness : float;  (** additive offset on all pixels *)
  contrast : float;  (** multiplicative gain *)
  noise : float;  (** iid Gaussian pixel noise σ *)
}

(** The nominal (data-collection) conditions. *)
let nominal = { brightness = 0.; contrast = 1.; noise = 0.02 }

(** [shifted] conditions: slightly brighter, higher-gain, noisier — the
    deployment-time shift used to provoke occasional OOD events (black
    swans, not a wholesale distribution change). *)
let shifted = { brightness = 0.05; contrast = 1.04; noise = 0.032 }

(** [pixels cfg] is the flattened image dimension. *)
let pixels cfg = cfg.width * cfg.height

(* Ground point at distance d ahead and lateral offset l (vehicle
   frame) mapped to an image column in [0, width). *)
let column_of cfg ~distance ~lateral =
  let angle = Float.atan2 lateral distance in
  let normalized = (angle /. (cfg.fov /. 2.)) +. 1. in
  normalized /. 2. *. float_of_int (cfg.width - 1)

(** [capture ?rng cfg cond track pose] renders the flattened grayscale
    image (row-major, bottom row first) seen from [pose]. *)
let capture ?rng cfg cond track (pose : Track.pose) =
  let img = Array.make (pixels cfg) 0. in
  let s0 = Track.nearest_s track pose in
  let cos_yaw = cos pose.Track.yaw and sin_yaw = sin pose.Track.yaw in
  let sigma = cfg.lane_sigma *. float_of_int cfg.width in
  for r = 0 to cfg.height - 1 do
    let t = float_of_int r /. float_of_int (max 1 (cfg.height - 1)) in
    let distance = Cv_util.Float_utils.lerp cfg.near cfg.far t in
    (* Track centerline point at arc length ahead; its position in the
       vehicle frame decides the bright column. *)
    let target = Track.point_at track (s0 +. distance) in
    let dx = target.Track.x -. pose.Track.px
    and dy = target.Track.y -. pose.Track.py in
    let forward = (dx *. cos_yaw) +. (dy *. sin_yaw) in
    let lateral = (-.dx *. sin_yaw) +. (dy *. cos_yaw) in
    if forward > 0.05 then begin
      let center_col = column_of cfg ~distance:forward ~lateral in
      for c = 0 to cfg.width - 1 do
        let d = (float_of_int c -. center_col) /. sigma in
        let v = exp (-0.5 *. d *. d) in
        img.((r * cfg.width) + c) <- img.((r * cfg.width) + c) +. v
      done
    end
  done;
  (* Apply conditions. *)
  Array.mapi
    (fun _ v ->
      let v = (v *. cond.contrast) +. cond.brightness in
      let v =
        match rng with
        | Some rng -> v +. Cv_util.Rng.gaussian rng ~mu:0. ~sigma:cond.noise
        | None -> v
      in
      Cv_util.Float_utils.clamp ~lo:0. ~hi:1.5 v)
    img

(** [ascii cfg img] renders the image with intensity characters —
    debugging aid for the examples. *)
let ascii cfg img =
  let ramp = " .:-=+*#%@" in
  let buf = Buffer.create (pixels cfg + cfg.height) in
  for r = cfg.height - 1 downto 0 do
    for c = 0 to cfg.width - 1 do
      let v = Cv_util.Float_utils.clamp ~lo:0. ~hi:0.999 img.((r * cfg.width) + c) in
      Buffer.add_char buf ramp.[int_of_float (v *. float_of_int (String.length ramp))]
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
