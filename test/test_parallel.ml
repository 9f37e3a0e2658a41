(* Tests for the domain pool (Putil.Pool) and the determinism guarantee
   of the parallel sweep engine: POWERLIM_JOBS must never change results,
   only wall time. *)

exception Boom of int

let with_pool size f =
  let pool = Putil.Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Putil.Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* parallel_map: ordering                                              *)
(* ------------------------------------------------------------------ *)

let test_map_order_parallel () =
  with_pool 4 (fun pool ->
      let xs = List.init 200 Fun.id in
      let ys = Putil.Pool.parallel_map pool (fun x -> x * x) xs in
      Alcotest.(check (list int))
        "squares in submission order"
        (List.map (fun x -> x * x) xs)
        ys)

let test_map_order_sequential () =
  with_pool 1 (fun pool ->
      Alcotest.(check int) "sequential pool spawns no domains" 0
        (Putil.Pool.size pool);
      let ys = Putil.Pool.parallel_map pool (fun x -> x + 1) [ 3; 1; 2 ] in
      Alcotest.(check (list int)) "order preserved" [ 4; 2; 3 ] ys)

(* ------------------------------------------------------------------ *)
(* exception capture and re-raise at await                             *)
(* ------------------------------------------------------------------ *)

let test_exception_single size () =
  with_pool size (fun pool ->
      let fut = Putil.Pool.submit pool (fun () -> raise (Boom 7)) in
      match Putil.Pool.await fut with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 7 -> ())

let test_exception_map size () =
  with_pool size (fun pool ->
      match
        Putil.Pool.parallel_map pool
          (fun x -> if x mod 4 = 1 then raise (Boom x) else x)
          (List.init 12 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x ->
          (* earliest failing element wins, at any pool size *)
          Alcotest.(check int) "earliest failure re-raised" 1 x)

let test_healthy_after_exception () =
  with_pool 3 (fun pool ->
      (match
         Putil.Pool.await (Putil.Pool.submit pool (fun () -> raise (Boom 0)))
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom _ -> ());
      let ys = Putil.Pool.parallel_map pool (fun x -> 2 * x) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "pool survives task failure" [ 2; 4; 6 ] ys)

(* ------------------------------------------------------------------ *)
(* nested submission (the shape Sweeps.compute uses)                   *)
(* ------------------------------------------------------------------ *)

let test_nested_submit () =
  with_pool 2 (fun pool ->
      let v =
        Putil.Pool.await
          (Putil.Pool.submit pool (fun () ->
               let fs =
                 List.init 8 (fun i ->
                     Putil.Pool.submit pool (fun () -> i + 1))
               in
               List.fold_left (fun a f -> a + Putil.Pool.await f) 0 fs))
      in
      Alcotest.(check int) "nested awaits complete" 36 v)

let test_nested_parallel_map () =
  with_pool 3 (fun pool ->
      let grid =
        Putil.Pool.parallel_map pool
          (fun a ->
            Putil.Pool.parallel_map pool
              (fun b -> (10 * a) + b)
              [ 0; 1; 2; 3 ])
          [ 0; 1; 2 ]
      in
      Alcotest.(check (list (list int)))
        "two-level fan-out ordered"
        [ [ 0; 1; 2; 3 ]; [ 10; 11; 12; 13 ]; [ 20; 21; 22; 23 ] ]
        grid)

let test_nested_exception () =
  with_pool 2 (fun pool ->
      match
        Putil.Pool.await
          (Putil.Pool.submit pool (fun () ->
               Putil.Pool.parallel_map pool
                 (fun b -> if b = 2 then raise (Boom b) else b)
                 [ 0; 1; 2; 3 ]))
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 2 -> ())

(* ------------------------------------------------------------------ *)
(* workers spawn on demand                                             *)
(* ------------------------------------------------------------------ *)

let spawned () = (Putil.Pool.totals ()).Putil.Pool.spawned

let test_create_spawns_nothing () =
  let before = spawned () in
  with_pool 4 (fun pool ->
      Alcotest.(check int) "size is the bound" 4 (Putil.Pool.size pool);
      Alcotest.(check int) "no domain before the first submit" before
        (spawned ()))

let test_spawn_bounded_by_size () =
  let before = spawned () in
  with_pool 4 (fun pool ->
      let ys =
        Putil.Pool.parallel_map pool (fun x -> x + 1) (List.init 16 Fun.id)
      in
      Alcotest.(check (list int)) "results" (List.init 16 succ) ys);
  let n = spawned () - before in
  Alcotest.(check bool)
    (Printf.sprintf "16 tasks spawn 1..4 domains (spawned %d)" n)
    true
    (n >= 1 && n <= 4)

(* ------------------------------------------------------------------ *)
(* POWERLIM_JOBS parsing                                               *)
(* ------------------------------------------------------------------ *)

let test_jobs_env_parsing () =
  let with_env v f =
    let old = Sys.getenv_opt "POWERLIM_JOBS" in
    Unix.putenv "POWERLIM_JOBS" v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "POWERLIM_JOBS"
          (match old with Some s -> s | None -> ""))
      f
  in
  with_env "7" (fun () ->
      Alcotest.(check int) "explicit size" 7 (Putil.Pool.default_size ()));
  with_env "0" (fun () ->
      Alcotest.(check int) "zero clamps to sequential" 0
        (Putil.Pool.default_size ()));
  with_env "-3" (fun () ->
      Alcotest.(check int) "negative clamps to sequential" 0
        (Putil.Pool.default_size ()));
  with_env "not-a-number" (fun () ->
      Alcotest.(check bool) "garbage falls back to the machine default" true
        (Putil.Pool.default_size () >= 0))

(* ------------------------------------------------------------------ *)
(* determinism: the figure output must not depend on the pool size     *)
(* ------------------------------------------------------------------ *)

let small_config =
  {
    Experiments.Common.default_config with
    Experiments.Common.nranks = 4;
    iterations = 3;
    caps = [ 30.0; 50.0; 80.0 ];
  }

let render_sweep pool =
  let s = Experiments.Sweeps.compute ~pool ~config:small_config () in
  Fmt.str "%t%t%t%t" (Experiments.Sweeps.fig9 s) (Experiments.Sweeps.fig10 s)
    (Experiments.Sweeps.per_benchmark s Workloads.Apps.CoMD)
    (Experiments.Sweeps.summary s)

let test_sweep_determinism () =
  let seq = with_pool 1 render_sweep in
  let par = with_pool 4 render_sweep in
  Alcotest.(check string) "figure output byte-identical at 1 and 4 domains"
    seq par

(* Warm-started sweeps are a pure performance device: every point of
   [run_sweep ~warm:true] must be byte-identical to the cold path,
   whether the chain runs in the calling domain (a 1-domain pool runs
   tasks in place) or on a worker domain of a 4-domain pool, as
   [Sweeps.compute] runs it.  Points are rendered with %h (hex floats),
   so the comparison is exact to the last bit. *)
let render_points warm =
  let setup =
    Experiments.Common.make_setup small_config Workloads.Apps.CoMD
  in
  let sw = Experiments.Common.run_sweep ~warm setup in
  String.concat "\n"
    (List.map
       (fun (p : Experiments.Common.point) ->
         Printf.sprintf "%h %b %h %h %h %h %h %h %h %h %h" p.cap p.schedulable
           p.static_span p.conductor_span p.lp_span p.lp_objective
           p.lp_vs_static p.lp_vs_conductor p.conductor_vs_static
           p.lp_max_power p.job_cap)
       sw.Experiments.Common.points)

let test_sweep_warm_equals_cold () =
  let on size warm =
    with_pool size (fun pool ->
        Putil.Pool.await (Putil.Pool.submit pool (fun () -> render_points warm)))
  in
  let w1 = on 1 true and c1 = on 1 false in
  let w4 = on 4 true and c4 = on 4 false in
  Alcotest.(check string) "warm = cold at 1 domain" c1 w1;
  Alcotest.(check string) "warm = cold at 4 domains" c4 w4;
  Alcotest.(check string) "cold path pool-size invariant" c1 c4

let suite =
  [
    ( "util.pool",
      [
        Alcotest.test_case "parallel_map order (4 domains)" `Quick
          test_map_order_parallel;
        Alcotest.test_case "parallel_map order (sequential)" `Quick
          test_map_order_sequential;
        Alcotest.test_case "exception re-raised (parallel)" `Quick
          (test_exception_single 4);
        Alcotest.test_case "exception re-raised (sequential)" `Quick
          (test_exception_single 1);
        Alcotest.test_case "earliest exception wins (parallel)" `Quick
          (test_exception_map 4);
        Alcotest.test_case "earliest exception wins (sequential)" `Quick
          (test_exception_map 1);
        Alcotest.test_case "pool healthy after failure" `Quick
          test_healthy_after_exception;
        Alcotest.test_case "nested submit/await" `Quick test_nested_submit;
        Alcotest.test_case "nested parallel_map" `Quick
          test_nested_parallel_map;
        Alcotest.test_case "nested exception" `Quick test_nested_exception;
        Alcotest.test_case "create spawns no domain" `Quick
          test_create_spawns_nothing;
        Alcotest.test_case "spawns at most size domains" `Quick
          test_spawn_bounded_by_size;
        Alcotest.test_case "POWERLIM_JOBS parsing" `Quick
          test_jobs_env_parsing;
      ] );
    ( "parallel.sweeps",
      [
        Alcotest.test_case "POWERLIM_JOBS=1 vs 4 byte-identical" `Slow
          test_sweep_determinism;
        Alcotest.test_case "warm vs cold byte-identical at 1 and 4 domains"
          `Slow test_sweep_warm_equals_cold;
      ] );
  ]
