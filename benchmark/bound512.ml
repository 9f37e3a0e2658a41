(* bound-512: one cold LP bound for CoMD at 512 ranks x 1 iteration and
   40 W/socket, through the calls `powerlim bound` makes, split at their
   public seams: scenario -> prepare -> solve -> replay validation.
   Presolve, the LU/Forrest-Tomlin kernels and Dantzig-Wolfe (engaged by
   default from 512 blocks) do all the work; at this cap the
   decomposition runs to its iteration limit.  It is the control for warm
   starts and edits.

   One iteration rather than the CLI's ten keeps a bound near 10 s on two
   cores.  As for sweep-16, the instance (trace seed 42) does not depend
   on --seed: a cold bound's time moves by up to 40% between trace seeds
   at identical pivot counts. *)

type rep = { objective : float; within_cap : bool }

type st = {
  params : Workloads.Apps.params;
  job_cap : float;
  instance : string;
  mutable reps : rep option list;  (** [None]: no schedule *)
}

let app = Workloads.Apps.CoMD
let cap = 40.0
let trace_seed = 42

let params ~ranks ~iters =
  { Workloads.Apps.nranks = ranks; iterations = iters; seed = trace_seed; scale = 1.0 }

(* The four public calls of one bound, each in its own layer span. *)
let bound params ~job_cap =
  let sc =
    Harness.span "pipeline.scenario" (fun () ->
        Pipeline.Stages.scenario (Pipeline.Stages.Synthetic (app, params)))
  in
  let pz =
    Harness.span "core.prepare" (fun () ->
        Core.Event_lp.prepare sc ~power_cap:job_cap)
  in
  match
    Harness.span "core.solve" (fun () ->
        fst (Core.Event_lp.solve_prepared pz ~power_cap:job_cap))
  with
  | Core.Event_lp.Schedule s ->
      let v =
        Harness.span "core.replay" (fun () ->
            Core.Replay.validate sc s ~power_cap:job_cap)
      in
      Some { objective = s.Core.Event_lp.objective; within_cap = v.Core.Replay.within_cap }
  | Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _ -> None

let setup (ctx : Harness.ctx) =
  let ranks, iters = if ctx.Harness.tiny then (16, 2) else (512, 1) in
  (* start the pool and run the bound path once on a small instance *)
  Harness.repeat_setup (fun () ->
      ignore (Putil.Pool.get_default ());
      Putil.Cache.clear_all ();
      ignore (bound (params ~ranks:32 ~iters:2) ~job_cap:(cap *. 32.0));
      Putil.Cache.clear_all ();
      {
        params = params ~ranks ~iters;
        job_cap = cap *. Float.of_int ranks;
        instance =
          Printf.sprintf "bound %s %dx%d seed %d cap %g"
            (Workloads.Apps.app_name app) ranks iters trace_seed cap;
        reps = [];
      })

let measure _ctx st ~seconds =
  let lat = ref [] and failed = ref 0 in
  let n, wall =
    Harness.loop ~seconds (fun _ ->
        Putil.Cache.clear_all ();
        let t0 = Harness.now () in
        match bound st.params ~job_cap:st.job_cap with
        | r ->
            lat := (1000.0 *. (Harness.now () -. t0)) :: !lat;
            st.reps <- r :: st.reps
        | exception e ->
            incr failed;
            Fmt.epr "bound-512: %s@." (Printexc.to_string e))
  in
  Harness.phase ~failed:!failed ~units:n ~wall_s:wall !lat

(* The reference objective: golden for the fixed instance, otherwise a
   monolithic cold solve with the decomposition switched off. *)
let reference ctx st =
  match Golden.float ctx ~instance:st.instance "objective" with
  | Some obj -> Some obj
  | None -> (
      Putil.Cache.clear_all ();
      let sc =
        Pipeline.Stages.scenario (Pipeline.Stages.Synthetic (app, st.params))
      in
      Unix.putenv "POWERLIM_DW" "0";
      let o =
        Fun.protect
          ~finally:(fun () -> Unix.putenv "POWERLIM_DW" "")
          (fun () -> Core.Event_lp.solve sc ~power_cap:st.job_cap)
      in
      match o with
      | Core.Event_lp.Schedule s -> Some s.Core.Event_lp.objective
      | Core.Event_lp.Infeasible | Core.Event_lp.Solver_failure _ -> None)

let check ctx st =
  let reference = reference ctx st in
  List.length
    (List.filter
       (fun r ->
         match (r, reference) with
         | Some r, Some obj -> not (r.within_cap && Golden.rel_close r.objective obj)
         | _ -> true)
       st.reps)

let workload = { Harness.setup; measure; check }
