(* sweep-16: the exact `powerlim sweep` default — 4 apps x 7 caps of
   Static, Conductor and LP-replay at 16 ranks x 10 iterations, trace seed
   42 — from cold caches each time.  Its time goes to warm dual-simplex
   re-solves up the cap chains on the pool; decomposition and edits never
   run, so it is their no-change control.

   The instance does not depend on --seed: one sweep's time moves by up
   to a third between trace seeds, far more than any regression bound
   could absorb, and the sweep has no random choices of its own. *)

type st = {
  ranks : int;
  iters : int;
  instance : string;
  mutable outputs : (string * int) list;  (** stdout MD5 and status per rep *)
}

let trace_seed = 42

let setup (ctx : Harness.ctx) =
  let ranks, iters = if ctx.Harness.tiny then (4, 3) else (16, 10) in
  (* start the pool and run the sweep path once on a small instance, so
     the first timed sweep pays no one-time costs *)
  Harness.repeat_setup (fun () ->
      ignore (Putil.Pool.get_default ());
      Putil.Cache.clear_all ();
      ignore (Serve.Handlers.sweep ~ranks:4 ~iters:3 ~seed:trace_seed ());
      Putil.Cache.clear_all ();
      {
        ranks;
        iters;
        instance = Printf.sprintf "sweep %dx%d seed %d" ranks iters trace_seed;
        outputs = [];
      })

let measure _ctx st ~seconds =
  let lat = ref [] and failed = ref 0 in
  let n, wall =
    Harness.loop ~seconds (fun _ ->
        Putil.Cache.clear_all ();
        let t0 = Harness.now () in
        match
          Harness.span "serve.handler" (fun () ->
              Serve.Handlers.sweep ~ranks:st.ranks ~iters:st.iters
                ~seed:trace_seed ())
        with
        | o ->
            lat := (1000.0 *. (Harness.now () -. t0)) :: !lat;
            st.outputs <-
              (Digest.to_hex (Digest.string o.Serve.Handlers.out),
               o.Serve.Handlers.status)
              :: st.outputs
        | exception e ->
            incr failed;
            Fmt.epr "sweep-16: %s@." (Printexc.to_string e))
  in
  Harness.phase ~failed:!failed ~units:n ~wall_s:wall !lat

(* Every rep must print the golden bytes (or, for an instance without
   one, the same bytes as every other rep) and exit 0. *)
let check ctx st =
  let reference =
    match Golden.string ctx ~instance:st.instance "stdout_md5" with
    | Some md5 -> Some md5
    | None -> (
        match List.rev st.outputs with (md5, _) :: _ -> Some md5 | [] -> None)
  in
  List.length
    (List.filter
       (fun (md5, status) -> status <> 0 || Some md5 <> reference)
       st.outputs)

let workload = { Harness.setup; measure; check }
