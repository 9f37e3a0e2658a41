(* Judge two ledgers of untraced runs, metric by metric and workload by
   workload, with the bounds of BENCHMARK.json.

   [compare A B] (A the parent, B the change) pairs the i-th run of a
   workload in A with the i-th in B and prints each (metric, workload)
   as better, worse, within bound or unresolved:
   - unresolved: fewer than 10 pairs, or A's own spread (interquartile
     range over median) wider than the bound — unless every B run beats
     every A run;
   - better: B wins at least 9 of 10 pairs (ties count for neither) and
     the medians differ by more than A's interquartile range;
   - worse: B's median is worse than A's by more than the bound.
   Exit status 1 when anything is worse.

   [compare --repeat A B] checks two sets of runs of one commit: each
   set's spread within the bound (set-up time exempt) and B's median no
   worse than A's by more than the bound.  Exit status 1 on any
   failure. *)

type run = { workload : string; seed : int; started : float; metrics : (string * float) list }

let load path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         let j = Serve.Json.of_string line in
         let ctx = Option.value ~default:Putil.Obs.Null (Serve.Json.member "context" j) in
         if Serve.Json.member "trace" ctx = Some (Putil.Obs.Bool true) then None
         else
           let metrics =
             match Serve.Json.member "metrics" j with
             | Some (Putil.Obs.Assoc kvs) ->
                 List.filter_map
                   (fun (k, v) -> Option.map (fun f -> (k, f)) (Serve.Json.get_float "value" v))
                   kvs
             | _ -> []
           in
           Some
             {
               workload = Option.value ~default:"?" (Serve.Json.get_string "workload" ctx);
               seed = Option.value ~default:0 (Serve.Json.get_int "seed" ctx);
               started = Option.value ~default:0.0 (Serve.Json.get_float "started" ctx);
               metrics;
             })

(* Positive when [b] is worse than [a], as a share of [a]. *)
let worse_by (m : Spec.metric) a b =
  let d = (b -. a) /. a in
  if m.Spec.better = "lower" then d else -.d

let beats (m : Spec.metric) b a = if m.Spec.better = "lower" then b < a else b > a

let take n l = List.filteri (fun i _ -> i < n) l

let judge ~repeat (m : Spec.metric) a b =
  let n = min (List.length a) (List.length b) in
  let a = take n a and b = take n b in
  let med_a = Stat.median a and med_b = Stat.median b in
  let sa = Stat.spread a and sb = Stat.spread b in
  let w = worse_by m med_a med_b in
  if repeat then
    let spread_ok = m.Spec.name = "setup_s" || (sa <= m.Spec.bound && sb <= m.Spec.bound) in
    ((if spread_ok && w <= m.Spec.bound then "ok" else "FAIL"), med_a, med_b, sa, sb)
  else
    let wins = List.length (List.filter Fun.id (List.map2 (beats m) b a)) in
    let q1, q3 = Stat.quartiles a in
    let all_better = List.for_all (fun y -> List.for_all (fun x -> beats m y x) a) b in
    let status =
      if n < 10 then "unresolved"
      else if sa > m.Spec.bound then if all_better then "better" else "unresolved"
      else if 10 * wins >= 9 * n && beats m med_b med_a && Float.abs (med_b -. med_a) > q3 -. q1
      then "better"
      else if w > m.Spec.bound then "worse"
      else "within bound"
    in
    (status, med_a, med_b, sa, sb)

let run ~root ~repeat path_a path_b =
  let spec = Spec.load root in
  let a = load path_a and b = load path_b in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b)) in
  let bad = ref false in
  Printf.printf "%-11s %-13s %3s %12s %12s %8s %8s %8s %6s  %s\n" "workload" "metric" "n"
    "median A" "median B" "change" "spreadA" "spreadB" "bound" "verdict";
  List.iter
    (fun w ->
      let ra = List.filter (fun r -> r.workload = w) a in
      let rb = List.filter (fun r -> r.workload = w) b in
      let n = min (List.length ra) (List.length rb) in
      let pairs = List.combine (take n ra) (take n rb) in
      if List.exists (fun (x, y) -> x.seed <> y.seed) pairs then
        Printf.printf "# %s: paired runs use different seeds\n" w;
      let rec alternates = function
        | x :: (y :: _ as rest) -> x <> y && alternates rest
        | _ -> true
      in
      if (not repeat) && not (alternates (List.map (fun (x, y) -> x.started < y.started) pairs))
      then Printf.printf "# %s: pairs do not alternate which side ran first\n" w;
      List.iter
        (fun (m : Spec.metric) ->
          let values rs =
            List.filter_map (fun r -> List.assoc_opt m.Spec.name r.metrics) rs
          in
          let va = values ra and vb = values rb in
          if va <> [] && vb <> [] then begin
            let status, med_a, med_b, sa, sb = judge ~repeat m va vb in
            if status = "worse" || status = "FAIL" then bad := true;
            Printf.printf "%-11s %-13s %3d %12.4g %12.4g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n" w
              m.Spec.name
              (min (List.length va) (List.length vb))
              med_a med_b
              (100.0 *. (med_b -. med_a) /. med_a)
              (100.0 *. sa) (100.0 *. sb) (100.0 *. m.Spec.bound) status
          end)
        spec.Spec.end_to_end)
    workloads;
  if !bad then exit 1
