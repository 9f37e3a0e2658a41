(** Pareto frontiers of task configurations.

    The LP formulation requires, for every task, a set of configurations
    that is Pareto-efficient {e and convex} in the (power, time) plane
    (Section 3.2 of the paper): without convexity the piecewise-linear
    relaxation would admit blends that beat every real configuration and
    the formulation would have to go mixed-integer.  [convex] computes
    the lower convex hull of the non-dominated configurations, sorted by
    increasing power (and thus decreasing duration). *)

type t = Point.t array
(** Hull points sorted by power ascending, duration strictly
    descending. *)

(** Every (ladder frequency × thread count) configuration. *)
let enumerate ?(params = Machine.Socket.default_params) socket profile =
  let pts = ref [] in
  for threads = params.Machine.Socket.cores downto 1 do
    Array.iter
      (fun freq ->
        pts := Point.make ~params socket profile ~freq ~threads :: !pts)
      Machine.Dvfs.ladder
  done;
  Array.of_list !pts

(** Non-dominated subset (time/power Pareto frontier, not necessarily
    convex). *)
let pareto (pts : Point.t array) : Point.t array =
  let keep =
    Array.to_list pts
    |> List.filter (fun p ->
           not (Array.exists (fun q -> q != p && Point.dominates q p) pts))
  in
  (* Deduplicate identical (duration, power) pairs. *)
  let sorted =
    List.sort
      (fun (a : Point.t) b ->
        match compare a.power b.power with
        | 0 -> compare a.duration b.duration
        | c -> c)
      keep
  in
  let rec dedup = function
    | a :: b :: rest ->
        if
          Float.abs (a.Point.power -. b.Point.power) < 1e-12
          && Float.abs (a.Point.duration -. b.Point.duration) < 1e-12
        then dedup (a :: rest)
        else a :: dedup (b :: rest)
    | l -> l
  in
  Array.of_list (dedup sorted)

(** Lower convex hull of the Pareto frontier in the (power, duration)
    plane: the configuration set handed to the LP. *)
let convex_of_points (pts : Point.t array) : t =
  let pf = pareto pts in
  let n = Array.length pf in
  if n <= 2 then pf
  else begin
    (* Monotone chain, keeping the hull below the chords.  Points are
       sorted by power ascending with duration descending. *)
    let hull = Array.make n pf.(0) in
    let top = ref 0 in
    hull.(0) <- pf.(0);
    for i = 1 to n - 1 do
      let p = pf.(i) in
      let turns_up () =
        if !top < 1 then false
        else begin
          let a = hull.(!top - 1) and b = hull.(!top) in
          (* cross product of (b - a) x (p - a) in (power, duration);
             keep the hull convex from below: pop while not a right
             turn. *)
          let cross =
            ((b.Point.power -. a.Point.power)
            *. (p.Point.duration -. a.Point.duration))
            -. ((b.Point.duration -. a.Point.duration)
               *. (p.Point.power -. a.Point.power))
          in
          cross <= 1e-12
        end
      in
      while !top >= 1 && turns_up () do
        decr top
      done;
      incr top;
      hull.(!top) <- p
    done;
    Array.sub hull 0 (!top + 1)
  end

let convex ?(params = Machine.Socket.default_params) socket profile : t =
  convex_of_points (enumerate ~params socket profile)

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri (fun i p -> if not (Point.equal p b.(i)) then ok := false) a;
       !ok
     end

let digest_fold h (f : t) =
  Putil.Hashing.int h (Array.length f);
  Array.iter (Point.digest_fold h) f

(* The content key of a hull: everything [convex] reads — the machine
   parameters, the socket's efficiency (not its id: equally efficient
   parts have identical frontiers) and the task profile — so that equal
   inputs can share one physical hull array.  Frontiers are treated as
   immutable by the whole system; callers must not mutate a shared
   array. *)
let memo_key ?(params = Machine.Socket.default_params) (socket : Machine.Socket.t)
    profile =
  let h = Putil.Hashing.create () in
  Machine.Socket.params_digest_fold h params;
  Putil.Hashing.float h socket.Machine.Socket.eff;
  Machine.Profile.digest_fold h profile;
  Putil.Hashing.hex h

let min_power (f : t) = f.(0).Point.power
let max_power (f : t) = f.(Array.length f - 1).Point.power
let fastest (f : t) = f.(Array.length f - 1)
let slowest (f : t) = f.(0)

(** Fastest single (discrete) configuration whose power fits [budget];
    [None] when even the frugal end of the frontier exceeds the budget. *)
let best_under_power (f : t) ~budget =
  let best = ref None in
  Array.iter
    (fun (p : Point.t) ->
      if p.power <= budget +. 1e-9 then
        match !best with
        | Some (q : Point.t) when q.duration <= p.duration -> ()
        | _ -> best := Some p)
    f;
  !best

(** A blend of (at most two adjacent) hull configurations: the continuous
    configurations of Section 3.2, realized by switching mid-task. *)
type blend = (Point.t * float) list

let blend_power (b : blend) =
  List.fold_left (fun acc (p, w) -> acc +. (w *. p.Point.power)) 0.0 b

let blend_duration (b : blend) =
  List.fold_left (fun acc (p, w) -> acc +. (w *. p.Point.duration)) 0.0 b

(** Blend with average power exactly [power] (clamped to the frontier's
    power range), fastest possible: interpolates between the two adjacent
    hull points bracketing [power]. *)
let interpolate (f : t) ~power : blend =
  let n = Array.length f in
  if n = 0 then invalid_arg "Frontier.interpolate: empty frontier";
  if power <= f.(0).Point.power then [ (f.(0), 1.0) ]
  else if power >= f.(n - 1).Point.power then [ (f.(n - 1), 1.0) ]
  else begin
    let k = ref 0 in
    while f.(!k + 1).Point.power < power do
      incr k
    done;
    let a = f.(!k) and b = f.(!k + 1) in
    let span = b.Point.power -. a.Point.power in
    if span <= 1e-12 then [ (b, 1.0) ]
    else begin
      let wb = (power -. a.Point.power) /. span in
      [ (a, 1.0 -. wb); (b, wb) ]
    end
  end

(** Duration of the fastest blend at average power [power] (piecewise
    linear in [power], clamped to the frontier's range). *)
let duration_at_power (f : t) ~power = blend_duration (interpolate f ~power)

(** Inverse of [duration_at_power]: smallest average power achieving
    [duration] (clamped to the frontier's range).  Used by runtimes to
    answer "how many watts does this rank need to finish in time?". *)
let power_for_duration (f : t) ~duration : float =
  let n = Array.length f in
  if n = 0 then invalid_arg "Frontier.power_for_duration: empty frontier";
  if duration >= f.(0).Point.duration then f.(0).Point.power
  else if duration <= f.(n - 1).Point.duration then f.(n - 1).Point.power
  else begin
    (* durations descend with index; find the bracketing segment *)
    let k = ref 0 in
    while f.(!k + 1).Point.duration > duration do
      incr k
    done;
    let a = f.(!k) and b = f.(!k + 1) in
    let span = a.Point.duration -. b.Point.duration in
    if span <= 1e-12 then a.Point.power
    else begin
      let wb = (a.Point.duration -. duration) /. span in
      a.Point.power +. (wb *. (b.Point.power -. a.Point.power))
    end
  end

(** Discrete rounding of a target power: the hull configuration whose
    power is closest to [power] (the paper's rounding rule for the
    discrete case). *)
let round_nearest (f : t) ~power : Point.t =
  let best = ref f.(0) and d = ref Float.infinity in
  Array.iter
    (fun (p : Point.t) ->
      let dd = Float.abs (p.power -. power) in
      if dd < !d then begin
        d := dd;
        best := p
      end)
    f;
  !best

(** Discrete rounding that never exceeds the target power (falls back to
    the frugal end of the hull). *)
let round_down (f : t) ~power : Point.t =
  match best_under_power f ~budget:power with Some p -> p | None -> f.(0)

let pp ppf (f : t) =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(array ~sep:cut Point.pp) f
