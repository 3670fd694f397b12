(** Race-track geometry for the 1/10-scale vehicle substitute.

    The paper's evaluation platform is a physical 1/10-scale car doing
    lane following on a race track; we replace it with a planar track
    model: a closed centerline sampled densely from a parametric oval
    with two straights and two 180° curves (a "stadium" track), plus
    pose queries (nearest centerline point, lateral offset, relative
    heading) that the camera model and the closed-loop simulation
    need. *)

type point = { x : float; y : float }

type t = {
  centerline : point array;  (** dense closed polyline *)
  cum_s : float array;  (** cumulative arc length per sample *)
  length : float;  (** total lap length *)
  half_width : float;  (** lane half-width *)
}

let pi = Float.pi

(** [stadium ~straight ~radius ~half_width ~samples ()] builds a stadium
    track: two straights of length [straight] joined by half-circles of
    [radius]. *)
let stadium ?(straight = 6.0) ?(radius = 2.0) ?(half_width = 0.35)
    ?(samples = 600) () =
  let perimeter = (2. *. straight) +. (2. *. pi *. radius) in
  let point_at s =
    (* s ∈ [0, perimeter): walk the stadium boundary counter-clockwise,
       starting at the beginning of the bottom straight. *)
    let s = Float.rem s perimeter in
    if s < straight then { x = s; y = -.radius }
    else if s < straight +. (pi *. radius) then begin
      let a = (s -. straight) /. radius in
      { x = straight +. (radius *. sin a); y = -.radius *. cos a }
    end
    else if s < (2. *. straight) +. (pi *. radius) then begin
      let d = s -. straight -. (pi *. radius) in
      { x = straight -. d; y = radius }
    end
    else begin
      let a = (s -. (2. *. straight) -. (pi *. radius)) /. radius in
      { x = -.radius *. sin a; y = radius *. cos a }
    end
  in
  let centerline =
    Array.init samples (fun i ->
        point_at (float_of_int i /. float_of_int samples *. perimeter))
  in
  let cum_s =
    Array.init samples (fun i ->
        float_of_int i /. float_of_int samples *. perimeter)
  in
  { centerline; cum_s; length = perimeter; half_width }

(** [point_at t s] is the centerline point at arc length [s] (wraps). *)
let point_at t s =
  let s = Float.rem (Float.rem s t.length +. t.length) t.length in
  let n = Array.length t.centerline in
  let idx =
    int_of_float (s /. t.length *. float_of_int n) mod n
  in
  t.centerline.(idx)

(** [heading_at t s] is the track tangent direction (radians) at arc
    length [s]. *)
let heading_at t s =
  let eps = t.length /. float_of_int (Array.length t.centerline) in
  let p1 = point_at t s and p2 = point_at t (s +. eps) in
  Float.atan2 (p2.y -. p1.y) (p2.x -. p1.x)

(** [curvature_at t s] is the approximate signed curvature at [s]. *)
let curvature_at t s =
  let eps = t.length /. 50. in
  let h1 = heading_at t s and h2 = heading_at t (s +. eps) in
  let dh = Float.atan2 (sin (h2 -. h1)) (cos (h2 -. h1)) in
  dh /. eps

(** A vehicle pose on the plane. *)
type pose = { px : float; py : float; yaw : float }

(** [nearest_s t pose] is the arc length of the centerline point closest
    to the pose (the first one on a tie). A linear scan with squared
    distances as products: [x ** 2.] goes through libm [pow], which
    made this scan most of a simulated frame. *)
let nearest_s t pose =
  let px = pose.px and py = pose.py in
  let best = ref 0 and best_d = ref Float.infinity in
  for i = 0 to Array.length t.centerline - 1 do
    let p = t.centerline.(i) in
    let dx = p.x -. px and dy = p.y -. py in
    let d = (dx *. dx) +. (dy *. dy) in
    if d < !best_d then begin
      best_d := d;
      best := i
    end
  done;
  t.cum_s.(!best)

(** [lateral_offset t pose] is the signed distance from the centerline
    (positive = left of travel direction). *)
let lateral_offset t pose =
  let s = nearest_s t pose in
  let c = point_at t s in
  let h = heading_at t s in
  (* Cross product of tangent with the offset vector. *)
  let dx = pose.px -. c.x and dy = pose.py -. c.y in
  (-.sin h *. dx) +. (cos h *. dy)

(** [relative_heading t pose] is the vehicle yaw minus the track heading,
    wrapped to (−π, π]. *)
let relative_heading t pose =
  let h = heading_at t (nearest_s t pose) in
  let d = pose.yaw -. h in
  Float.atan2 (sin d) (cos d)

(** [pose_at ?lateral ?heading_err t s] places a vehicle on the track at
    arc length [s] with the given lateral offset and heading error. *)
let pose_at ?(lateral = 0.) ?(heading_err = 0.) t s =
  let c = point_at t s in
  let h = heading_at t s in
  { px = c.x -. (lateral *. sin h);
    py = c.y +. (lateral *. cos h);
    yaw = h +. heading_err }

(** [on_track t pose] — is the vehicle inside the lane? *)
let on_track t pose = Float.abs (lateral_offset t pose) <= t.half_width

(** [render ?width ?height t poses] draws an ASCII map of the track
    (['.'] centerline) with the given poses marked ['o'] — the Figure 3
    stand-in. *)
let render ?(width = 72) ?(height = 24) t poses =
  let xs = Array.map (fun p -> p.x) t.centerline in
  let ys = Array.map (fun p -> p.y) t.centerline in
  let min_x, max_x = Cv_util.Stats.min_max xs in
  let min_y, max_y = Cv_util.Stats.min_max ys in
  let margin = 0.5 in
  let min_x = min_x -. margin and max_x = max_x +. margin in
  let min_y = min_y -. margin and max_y = max_y +. margin in
  let grid = Array.make_matrix height width ' ' in
  let plot ch x y =
    let c =
      int_of_float ((x -. min_x) /. (max_x -. min_x) *. float_of_int (width - 1))
    in
    let r =
      int_of_float ((max_y -. y) /. (max_y -. min_y) *. float_of_int (height - 1))
    in
    if r >= 0 && r < height && c >= 0 && c < width then grid.(r).(c) <- ch
  in
  Array.iter (fun p -> plot '.' p.x p.y) t.centerline;
  List.iter (fun p -> plot 'o' p.px p.py) poses;
  let buf = Buffer.create (width * height) in
  Array.iter
    (fun row ->
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    grid;
  Buffer.contents buf
