(* Tests for the LP substrate: sparse matrices, LU factorization, the
   dense oracle simplex, the revised simplex, and branch-and-bound. *)

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Sparse                                                              *)
(* ------------------------------------------------------------------ *)

let test_coo_to_csc () =
  let c = Lp.Sparse.Coo.create () in
  Lp.Sparse.Coo.add c 1 0 2.0;
  Lp.Sparse.Coo.add c 0 0 1.0;
  Lp.Sparse.Coo.add c 0 0 3.0;
  (* duplicate: summed *)
  Lp.Sparse.Coo.add c 2 1 5.0;
  Lp.Sparse.Coo.add c 0 1 0.0;
  (* explicit zero: dropped *)
  let a = Lp.Sparse.Csc.of_coo c in
  Alcotest.(check int) "nrows" 3 (Lp.Sparse.Csc.nrows a);
  Alcotest.(check int) "ncols" 2 (Lp.Sparse.Csc.ncols a);
  Alcotest.(check int) "nnz" 3 (Lp.Sparse.Csc.nnz a);
  let d = Lp.Sparse.Csc.to_dense a in
  check_float "a00" 4.0 d.(0).(0);
  check_float "a10" 2.0 d.(1).(0);
  check_float "a21" 5.0 d.(2).(1)

let test_csc_mult () =
  let c = Lp.Sparse.Coo.create () in
  Lp.Sparse.Coo.add c 0 0 1.0;
  Lp.Sparse.Coo.add c 0 1 2.0;
  Lp.Sparse.Coo.add c 1 1 3.0;
  let a = Lp.Sparse.Csc.of_coo c in
  let y = Array.make 2 0.0 in
  Lp.Sparse.Csc.mult a [| 10.0; 100.0 |] y;
  check_float "y0" 210.0 y.(0);
  check_float "y1" 300.0 y.(1);
  let z = Lp.Sparse.Csc.mult_t a [| 1.0; 1.0 |] in
  check_float "z0" 1.0 z.(0);
  check_float "z1" 5.0 z.(1)

(* ------------------------------------------------------------------ *)
(* LU                                                                  *)
(* ------------------------------------------------------------------ *)

let random_sparse_matrix rng m density =
  let a = Array.make_matrix m m 0.0 in
  for i = 0 to m - 1 do
    (* guarantee structural nonsingularity with a strong diagonal *)
    a.(i).(i) <- 2.0 +. QCheck.Gen.float_bound_inclusive 3.0 rng;
    for j = 0 to m - 1 do
      if i <> j && QCheck.Gen.float_bound_inclusive 1.0 rng < density then
        a.(i).(j) <- QCheck.Gen.float_range (-2.0) 2.0 rng
    done
  done;
  a

let lu_roundtrip m density seed =
  let rng = Random.State.make [| seed |] in
  let a = random_sparse_matrix rng m density in
  let col_iter k f =
    for i = 0 to m - 1 do
      if a.(i).(k) <> 0.0 then f i a.(i).(k)
    done
  in
  let lu = Lp.Lu.factor ~m col_iter in
  Alcotest.(check (list (pair int int))) "no replaced columns" [] lu.Lp.Lu.replaced;
  (* check B x = b for a few right-hand sides *)
  let x = Array.make m 0.0 and scratch = Array.make m 0.0 in
  for trial = 0 to 2 do
    let b = Array.init m (fun i -> Float.of_int ((i + trial) mod 5) -. 2.0) in
    Lp.Lu.solve lu ~b ~x ~scratch;
    (* residual: B x - b where x is indexed by column position *)
    for i = 0 to m - 1 do
      let s = ref 0.0 in
      for k = 0 to m - 1 do
        s := !s +. (a.(i).(k) *. x.(k))
      done;
      if Float.abs (!s -. b.(i)) > 1e-8 then
        Alcotest.failf "solve residual %g at row %d" (!s -. b.(i)) i
    done;
    (* transpose solve *)
    let y = Array.make m 0.0 in
    let c = Array.init m (fun i -> Float.of_int (i mod 3) -. 1.0) in
    Lp.Lu.solve_t lu ~c ~y ~scratch;
    for k = 0 to m - 1 do
      let s = ref 0.0 in
      for i = 0 to m - 1 do
        s := !s +. (a.(i).(k) *. y.(i))
      done;
      if Float.abs (!s -. c.(k)) > 1e-8 then
        Alcotest.failf "solve_t residual %g at col %d" (!s -. c.(k)) k
    done
  done

let test_lu_small () = lu_roundtrip 5 0.5 42
let test_lu_medium () = lu_roundtrip 60 0.1 7
let test_lu_dense () = lu_roundtrip 25 0.9 3

(* --- Forrest–Tomlin updates --------------------------------------- *)

(* Random column replacements against a live matrix copy: after each
   certified update the FT kernels must agree with a full
   refactorization of the explicitly modified matrix, and with zero
   updates they must replay the base kernels bit for bit. *)
let ft_update_roundtrip m density nupd seed =
  let rng = Random.State.make [| seed |] in
  let a = random_sparse_matrix rng m density in
  let col_iter k f =
    for i = 0 to m - 1 do
      if a.(i).(k) <> 0.0 then f i a.(i).(k)
    done
  in
  let lu = Lp.Lu.factor ~m col_iter in
  let wsp = Lp.Lu.Ft.make_wsp m in
  let ft = ref (Lp.Lu.Ft.of_factor wsp lu) in
  let valid what =
    match Lp.Lu.Ft.validate !ft with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: structure check: %s" what e
  in
  valid "fresh factorization";
  let x = Array.make m 0.0
  and x' = Array.make m 0.0
  and scratch = Array.make m 0.0 in
  (* zero updates: bitwise identity with the base kernels *)
  let b0 = Array.init m (fun i -> Float.of_int ((i * 7 mod 11) - 5)) in
  Lp.Lu.solve lu ~b:b0 ~x ~scratch;
  Lp.Lu.Ft.ftran_d !ft ~keep_spike:false ~b:b0 ~x:x' ~scratch;
  Alcotest.(check (array (float 0.0))) "ftran_d = solve at 0 updates" x x';
  let y = Array.make m 0.0 and y' = Array.make m 0.0 in
  Lp.Lu.solve_t lu ~c:b0 ~y ~scratch;
  Lp.Lu.Ft.btran_d !ft ~c:b0 ~y:y' ~scratch;
  Alcotest.(check (array (float 0.0))) "btran_d = solve_t at 0 updates" y y';
  (* now a pivot sequence of random column replacements *)
  let bdense = Array.make m 0.0 in
  let done_upd = ref 0 and tries = ref 0 in
  while !done_upd < nupd && !tries < 50 * nupd do
    incr tries;
    let r = QCheck.Gen.int_bound (m - 1) rng in
    let col =
      Array.init m (fun _ ->
          if QCheck.Gen.float_bound_inclusive 1.0 rng < density then
            QCheck.Gen.float_range (-2.0) 2.0 rng
          else 0.0)
    in
    col.(r) <- col.(r) +. 2.0;
    Array.iteri (fun i v -> bdense.(i) <- v) col;
    Lp.Lu.Ft.ftran_d !ft ~keep_spike:true ~b:bdense ~x ~scratch;
    if Float.abs x.(r) > 0.1 then
      if Lp.Lu.Ft.update !ft ~pos:r ~wr:x.(r) then begin
        incr done_upd;
        valid (Printf.sprintf "after update %d" !done_upd);
        for i = 0 to m - 1 do
          a.(i).(r) <- col.(i)
        done;
        (* reference: full refactorization of the updated matrix *)
        let lu2 = Lp.Lu.factor ~m col_iter in
        let b = Array.init m (fun i -> Float.of_int ((i + !done_upd) mod 5) -. 2.0) in
        Lp.Lu.solve lu2 ~b ~x:x' ~scratch;
        Lp.Lu.Ft.ftran_d !ft ~keep_spike:false ~b ~x ~scratch;
        for k = 0 to m - 1 do
          if Float.abs (x.(k) -. x'.(k)) > 1e-7 then
            Alcotest.failf "ftran after %d updates: %.12g vs %.12g at %d"
              !done_upd x.(k) x'.(k) k
        done;
        (* sparse FTRAN agrees with dense on its support *)
        Array.fill x 0 m 0.0;
        let bidx = [| QCheck.Gen.int_bound (m - 1) rng |] in
        Array.fill bdense 0 m 0.0;
        bdense.(bidx.(0)) <- 1.5;
        let xind = Array.make m 0 in
        let n =
          Lp.Lu.Ft.ftran_sp !ft ~keep_spike:false ~nb:1 ~bidx ~b:bdense ~x
            ~xind
        in
        Lp.Lu.Ft.ftran_d !ft ~keep_spike:false ~b:bdense ~x:x' ~scratch;
        (if n >= 0 then
           for e = 0 to n - 1 do
             let k = xind.(e) in
             if x.(k) <> x'.(k) then
               Alcotest.failf "ftran_sp bit-diff at %d: %h vs %h" k x.(k)
                 x'.(k)
           done
         else
           for k = 0 to m - 1 do
             if x.(k) <> x'.(k) then
               Alcotest.failf "ftran_sp dense-fallback diff at %d" k
           done);
        Array.fill x 0 m 0.0;
        (if n >= 0 then for e = 0 to n - 1 do x.(xind.(e)) <- 0.0 done);
        Array.fill bdense 0 m 0.0;
        (* BTRAN agrees with the refactorized transpose solve *)
        let c = Array.init m (fun i -> Float.of_int (i mod 3) -. 1.0) in
        Lp.Lu.solve_t lu2 ~c ~y:y' ~scratch;
        Lp.Lu.Ft.btran_d !ft ~c ~y ~scratch;
        for i = 0 to m - 1 do
          if Float.abs (y.(i) -. y'.(i)) > 1e-7 then
            Alcotest.failf "btran after %d updates: %.12g vs %.12g at %d"
              !done_upd y.(i) y'.(i) i
        done;
        (* sparse BTRAN bitwise vs dense FT BTRAN *)
        let cidx = [| QCheck.Gen.int_bound (m - 1) rng |] in
        let csp = Array.make m 0.0 in
        csp.(cidx.(0)) <- -2.5;
        let yind = Array.make m 0 in
        Array.fill y 0 m 0.0;
        let n = Lp.Lu.Ft.btran_sp !ft ~nc:1 ~cidx ~c:csp ~y ~yind in
        Lp.Lu.Ft.btran_d !ft ~c:csp ~y:y' ~scratch;
        if n >= 0 then
          for e = 0 to n - 1 do
            let i = yind.(e) in
            if y.(i) <> y'.(i) then
              Alcotest.failf "btran_sp bit-diff at %d: %h vs %h" i y.(i)
                y'.(i)
          done
      end
      else begin
        (* refused update: refactorize and carry on, like the solver *)
        for i = 0 to m - 1 do
          a.(i).(r) <- col.(i)
        done;
        ft := Lp.Lu.Ft.of_factor wsp (Lp.Lu.factor ~m col_iter);
        valid "refactorization";
        incr done_upd
      end
  done;
  if !done_upd < nupd then
    Alcotest.failf "only %d/%d updates applied" !done_upd nupd

let test_ft_small () = ft_update_roundtrip 6 0.5 8 11
let test_ft_medium () = ft_update_roundtrip 40 0.15 25 23
let test_ft_dense () = ft_update_roundtrip 18 0.8 12 5
let test_ft_many () = ft_update_roundtrip 30 0.2 60 91

(* --- entry checks -------------------------------------------------------
   The simplex's inner loops index without bounds checks, so what a
   caller hands in is checked where it enters, with a message naming the
   entry point (a bounds-checked access deep in a loop would raise an
   anonymous "index out of bounds" instead). *)
let rejects ~prefix what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument msg ->
      if not (String.starts_with ~prefix msg) then
        Alcotest.failf "%s: raised %S, not from %s" what msg prefix

(* min -x0 - x1 - x2 over three rows; a 3x3 matrix with 5 entries. *)
let entry_model () =
  let m = Lp.Model.create () in
  let v =
    Array.init 3 (fun j ->
        Lp.Model.add_var m ~ub:4.0 ~obj:(-1.0) (Printf.sprintf "x%d" j))
  in
  Lp.Model.add_constr m [ (1.0, v.(0)); (1.0, v.(1)) ] Lp.Model.Le 5.0;
  Lp.Model.add_constr m [ (1.0, v.(1)); (2.0, v.(2)) ] Lp.Model.Le 6.0;
  Lp.Model.add_constr m [ (1.0, v.(2)) ] Lp.Model.Ge 1.0;
  Lp.Model.compile m

let test_revised_entry_checks () =
  let p = entry_model () in
  let r = Lp.Revised.solve p in
  Alcotest.(check bool) "the model itself solves" true
    (r.Lp.Revised.status = Lp.Revised.Optimal);
  let solve_rejects what f = rejects ~prefix:"Revised.solve:" what f in
  let v n x = Array.make n x in
  List.iter
    (fun (what, f) -> solve_rejects what f)
    [
      ("short rhs", fun () -> Lp.Revised.solve ~rhs:(v 2 5.0) p);
      ("long rhs", fun () -> Lp.Revised.solve ~rhs:(v 4 5.0) p);
      ("short lb", fun () -> Lp.Revised.solve ~lb:(v 2 0.0) p);
      ("long lb", fun () -> Lp.Revised.solve ~lb:(v 4 0.0) p);
      ("short ub", fun () -> Lp.Revised.solve ~ub:(v 2 4.0) p);
      ("long ub", fun () -> Lp.Revised.solve ~ub:(v 4 4.0) p);
    ];
  let a = p.Lp.Model.a in
  let rowind = Array.copy a.Lp.Sparse.Csc.rowind in
  rowind.(Array.length rowind - 1) <- p.Lp.Model.nr;
  solve_rejects "row index = nr" (fun () ->
      Lp.Revised.solve { p with Lp.Model.a = { a with Lp.Sparse.Csc.rowind } });
  let colptr = Array.copy a.Lp.Sparse.Csc.colptr in
  Alcotest.(check (array int)) "column pointers" [| 0; 1; 3; 5 |] colptr;
  (* still from 0 to nnz, but column 1 would end before it starts *)
  colptr.(1) <- 4;
  solve_rejects "decreasing colptr" (fun () ->
      Lp.Revised.solve { p with Lp.Model.a = { a with Lp.Sparse.Csc.colptr } });
  let other =
    let m = Lp.Model.create () in
    let x = Lp.Model.add_var m "x" in
    Lp.Model.add_constr m [ (1.0, x) ] Lp.Model.Le 1.0;
    Lp.Revised.make_analysis (Lp.Model.compile m)
  in
  solve_rejects "analysis of another shape" (fun () ->
      Lp.Revised.solve ~analysis:other p);
  match Lp.Presolve.reduce p with
  | Lp.Presolve.Proven_infeasible -> Alcotest.fail "presolve: infeasible"
  | Lp.Presolve.Reduced red ->
      List.iter
        (fun n ->
          rejects ~prefix:"Presolve.solve_reduction:"
            (Printf.sprintf "original-space rhs of length %d" n) (fun () ->
              Lp.Presolve.solve_reduction ~rhs:(Array.make n 5.0) p red))
        [ 2; 4 ]

let test_ft_entry_checks () =
  let m = 5 in
  let rng = Random.State.make [| 3 |] in
  let a = random_sparse_matrix rng m 0.4 in
  let col_iter k f =
    for i = 0 to m - 1 do
      if a.(i).(k) <> 0.0 then f i a.(i).(k)
    done
  in
  let lu = Lp.Lu.factor ~m col_iter in
  rejects ~prefix:"Lu.Ft.of_factor:" "workspace of another dimension"
    (fun () -> Lp.Lu.Ft.of_factor (Lp.Lu.Ft.make_wsp (m + 1)) lu);
  let ft = Lp.Lu.Ft.of_factor (Lp.Lu.Ft.make_wsp m) lu in
  let v n = Array.make n 1.0 in
  let kernel what f = rejects ~prefix:"Lu.Ft." what f in
  kernel "ftran_d short x" (fun () ->
      Lp.Lu.Ft.ftran_d ft ~keep_spike:false ~b:(v m) ~x:(v (m - 1))
        ~scratch:(v m));
  kernel "ftran_d short scratch" (fun () ->
      Lp.Lu.Ft.ftran_d ft ~keep_spike:false ~b:(v m) ~x:(v m)
        ~scratch:(v (m - 1)));
  kernel "btran_d short scratch" (fun () ->
      Lp.Lu.Ft.btran_d ft ~c:(v m) ~y:(v m) ~scratch:(v (m - 1)));
  kernel "btran_d short y" (fun () ->
      Lp.Lu.Ft.btran_d ft ~c:(v m) ~y:(v (m - 1)) ~scratch:(v m));
  let xind = Array.make m 0 in
  kernel "ftran_sp short x" (fun () ->
      Lp.Lu.Ft.ftran_sp ft ~keep_spike:false ~nb:1 ~bidx:[| 0 |] ~b:(v m)
        ~x:(v (m - 1)) ~xind);
  kernel "ftran_sp seed out of range" (fun () ->
      Lp.Lu.Ft.ftran_sp ft ~keep_spike:false ~nb:1 ~bidx:[| m |] ~b:(v m)
        ~x:(v m) ~xind);
  kernel "ftran_sp repeated seed" (fun () ->
      Lp.Lu.Ft.ftran_sp ft ~keep_spike:false ~nb:2 ~bidx:[| 1; 1 |] ~b:(v m)
        ~x:(v m) ~xind);
  kernel "ftran_sp more seeds than indices" (fun () ->
      Lp.Lu.Ft.ftran_sp ft ~keep_spike:false ~nb:2 ~bidx:[| 1 |] ~b:(v m)
        ~x:(v m) ~xind);
  kernel "btran_sp short y" (fun () ->
      Lp.Lu.Ft.btran_sp ft ~nc:1 ~cidx:[| 0 |] ~c:(v m) ~y:(v (m - 1))
        ~yind:xind);
  kernel "btran_sp negative seed" (fun () ->
      Lp.Lu.Ft.btran_sp ft ~nc:1 ~cidx:[| -1 |] ~c:(v m) ~y:(v m) ~yind:xind);
  kernel "update position out of range" (fun () ->
      Lp.Lu.Ft.update ft ~pos:m ~wr:1.0);
  match Lp.Lu.Ft.validate ft with
  | Ok () -> ()
  | Error e -> Alcotest.failf "refused calls left the structure broken: %s" e

let test_lu_identity () =
  let m = 4 in
  let lu = Lp.Lu.factor ~m (fun k f -> f k 1.0) in
  let b = [| 1.0; 2.0; 3.0; 4.0 |] in
  let x = Array.make m 0.0 and scratch = Array.make m 0.0 in
  Lp.Lu.solve lu ~b ~x ~scratch;
  Alcotest.(check (array (float 1e-12))) "identity solve" b x

let test_lu_permutation () =
  (* a permutation matrix exercises pivoting *)
  let m = 4 in
  let perm = [| 2; 0; 3; 1 |] in
  let lu = Lp.Lu.factor ~m (fun k f -> f perm.(k) 1.0) in
  let b = [| 10.0; 20.0; 30.0; 40.0 |] in
  let x = Array.make m 0.0 and scratch = Array.make m 0.0 in
  Lp.Lu.solve lu ~b ~x ~scratch;
  (* x.(k) should satisfy column perm: B x = b where B e_k = e_{perm k} *)
  for k = 0 to m - 1 do
    check_float "perm solve" b.(perm.(k)) x.(k)
  done

(* Regression: during elimination a workspace entry can cancel to exactly
   0.0 and later refill; the factorization must not register that row
   twice (it once did, duplicating L entries and corrupting solves on the
   ±1-structured bases LP problems produce). *)
let test_lu_exact_cancellation () =
  let m = 4 in
  let cols =
    [|
      [ (0, 1.0); (2, 2.0) ];
      [ (0, 1.0); (1, 3.0) ];
      [ (0, 1.0); (1, 3.0); (2, 2.0); (3, 5.0) ];
      [ (0, 1.0) ];
    |]
  in
  let col_iter k f = List.iter (fun (i, v) -> f i v) cols.(k) in
  let lu = Lp.Lu.factor ~m col_iter in
  Alcotest.(check (list (pair int int))) "no replaced" [] lu.Lp.Lu.replaced;
  let b = [| 1.0; -2.0; 3.0; 0.5 |] in
  let x = Array.make m 0.0 and scratch = Array.make m 0.0 in
  Lp.Lu.solve lu ~b ~x ~scratch;
  for i = 0 to m - 1 do
    let s = ref 0.0 in
    for k = 0 to m - 1 do
      List.iter (fun (r, v) -> if r = i then s := !s +. (v *. x.(k))) cols.(k)
    done;
    if Float.abs (!s -. b.(i)) > 1e-10 then
      Alcotest.failf "cancellation residual %g at row %d" (!s -. b.(i)) i
  done

let test_lu_singular_replaced () =
  (* column 1 duplicates column 0: expect one replacement *)
  let m = 3 in
  let cols = [| [ (0, 1.0); (1, 1.0) ]; [ (0, 1.0); (1, 1.0) ]; [ (2, 1.0) ] |] in
  let lu = Lp.Lu.factor ~m (fun k f -> List.iter (fun (i, v) -> f i v) cols.(k)) in
  Alcotest.(check int) "one replaced" 1 (List.length lu.Lp.Lu.replaced)

(* ------------------------------------------------------------------ *)
(* Model                                                               *)
(* ------------------------------------------------------------------ *)

let test_model_compile () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:0.0 ~ub:4.0 ~obj:(-1.0) "x" in
  let y = Lp.Model.add_var m ~lb:0.0 ~obj:(-2.0) "y" in
  Lp.Model.add_constr m [ (1.0, x); (1.0, y) ] Lp.Model.Le 6.0;
  Lp.Model.add_constr m [ (1.0, y) ] Lp.Model.Le 3.0;
  let p = Lp.Model.compile m in
  Alcotest.(check int) "nv" 2 p.Lp.Model.nv;
  Alcotest.(check int) "nr" 2 p.Lp.Model.nr;
  check_float "obj x" (-1.0) p.Lp.Model.obj.(x);
  check_float "ub x" 4.0 p.Lp.Model.ub.(x);
  Alcotest.(check bool) "feasible pt" true
    (Lp.Model.feasible p [| 1.0; 1.0 |]);
  Alcotest.(check bool) "infeasible pt" false
    (Lp.Model.feasible p [| 5.0; 5.0 |])

(* ------------------------------------------------------------------ *)
(* Solvers: fixed small instances solved by hand                       *)
(* ------------------------------------------------------------------ *)

(* max x + 2y st x + y <= 6, y <= 3, 0 <= x <= 4 -> x=3? no:
   maximize x+2y: y=3, x=3 -> obj 9. As min: -9. *)
let model_basic () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:0.0 ~ub:4.0 ~obj:(-1.0) "x" in
  let y = Lp.Model.add_var m ~lb:0.0 ~obj:(-2.0) "y" in
  Lp.Model.add_constr m [ (1.0, x); (1.0, y) ] Lp.Model.Le 6.0;
  Lp.Model.add_constr m [ (1.0, y) ] Lp.Model.Le 3.0;
  Lp.Model.compile m

let test_dense_basic () =
  let r = Lp.Dense_simplex.solve (model_basic ()) in
  Alcotest.(check bool) "optimal" true (r.Lp.Dense_simplex.status = Lp.Dense_simplex.Optimal);
  check_float "objective" (-9.0) r.Lp.Dense_simplex.objective

let test_revised_basic () =
  let r = Lp.Revised.solve (model_basic ()) in
  Alcotest.(check bool) "optimal" true (r.Lp.Revised.status = Lp.Revised.Optimal);
  check_float "objective" (-9.0) r.Lp.Revised.objective;
  check_float "x" 3.0 r.Lp.Revised.x.(0);
  check_float "y" 3.0 r.Lp.Revised.x.(1)

(* min x + y st x + y >= 2, x - y = 0 -> x = y = 1 *)
let model_eq_ge () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~obj:1.0 "x" in
  let y = Lp.Model.add_var m ~obj:1.0 "y" in
  Lp.Model.add_constr m [ (1.0, x); (1.0, y) ] Lp.Model.Ge 2.0;
  Lp.Model.add_constr m [ (1.0, x); (-1.0, y) ] Lp.Model.Eq 0.0;
  Lp.Model.compile m

let test_dense_eq_ge () =
  let r = Lp.Dense_simplex.solve (model_eq_ge ()) in
  check_float "objective" 2.0 r.Lp.Dense_simplex.objective

let test_revised_eq_ge () =
  let r = Lp.Revised.solve (model_eq_ge ()) in
  Alcotest.(check bool) "optimal" true (r.Lp.Revised.status = Lp.Revised.Optimal);
  check_float "objective" 2.0 r.Lp.Revised.objective;
  check_float "x" 1.0 r.Lp.Revised.x.(0)

let test_infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:0.0 ~ub:1.0 ~obj:1.0 "x" in
  Lp.Model.add_constr m [ (1.0, x) ] Lp.Model.Ge 2.0;
  let p = Lp.Model.compile m in
  Alcotest.(check bool) "dense infeasible" true
    (Lp.Dense_simplex.(solve p).status = Lp.Dense_simplex.Infeasible);
  Alcotest.(check bool) "revised infeasible" true
    (Lp.Revised.(solve p).status = Lp.Revised.Infeasible)

let test_unbounded () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~obj:(-1.0) "x" in
  let y = Lp.Model.add_var m ~obj:0.0 "y" in
  Lp.Model.add_constr m [ (1.0, x); (-1.0, y) ] Lp.Model.Le 1.0;
  let p = Lp.Model.compile m in
  Alcotest.(check bool) "dense unbounded" true
    (Lp.Dense_simplex.(solve p).status = Lp.Dense_simplex.Unbounded);
  Alcotest.(check bool) "revised unbounded" true
    (Lp.Revised.(solve p).status = Lp.Revised.Unbounded)

(* Which start a cold solve took: slack starts, slack fallbacks and
   phase-1 pivots over [f ()]. *)
let starts_of f =
  let s0 = Lp.Stats.snapshot () in
  let r = f () in
  let s1 = Lp.Stats.snapshot () in
  let d g = g s1 - g s0 in
  ( r,
    ( d (fun s -> s.Lp.Stats.slack_starts),
      d (fun s -> s.Lp.Stats.slack_fallbacks),
      d (fun s -> s.Lp.Stats.phase1_pivots) ) )

(* Both costs are non-negative at finite lower bounds, so the slack
   basis is dual feasible and the dual loop starts there; the rows
   x + y >= 3 and x + y <= 1 contradict each other, and the dual finds
   that no column can relieve the second after the first is met. *)
let test_slack_start_infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~obj:1.0 "x" in
  let y = Lp.Model.add_var m ~obj:2.0 "y" in
  Lp.Model.add_constr m [ (1.0, x); (1.0, y) ] Lp.Model.Ge 3.0;
  Lp.Model.add_constr m [ (1.0, x); (1.0, y) ] Lp.Model.Le 1.0;
  let p = Lp.Model.compile m in
  let r, starts = starts_of (fun () -> Lp.Revised.solve ~check:true p) in
  Alcotest.(check (triple int int int))
    "slack starts, fallbacks, phase-1 pivots" (1, 0, 0) starts;
  Alcotest.(check bool) "infeasible" true
    (r.Lp.Revised.status = Lp.Revised.Infeasible);
  Alcotest.(check bool) "dense agrees" true
    (Lp.Dense_simplex.(solve p).status = Lp.Dense_simplex.Infeasible)

(* The slack basis of [min x s.t. x + y + z >= 1] is dual feasible, but
   the objective prices one column of three: phase 1 runs. *)
let test_one_priced_column_takes_phase1 () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~obj:1.0 "x" in
  let y = Lp.Model.add_var m ~obj:0.0 "y" in
  let z = Lp.Model.add_var m ~obj:0.0 "z" in
  Lp.Model.add_constr m [ (1.0, x); (1.0, y); (1.0, z) ] Lp.Model.Ge 1.0;
  let p = Lp.Model.compile m in
  let r, (slack, fallbacks, phase1) =
    starts_of (fun () -> Lp.Revised.solve p)
  in
  Alcotest.(check (pair int int)) "no slack start" (0, 0) (slack, fallbacks);
  Alcotest.(check bool) "phase-1 pivots" true (phase1 > 0);
  Alcotest.(check bool) "optimal" true (r.Lp.Revised.status = Lp.Revised.Optimal);
  check_float "objective" 0.0 r.Lp.Revised.objective


let test_beale_cycling_example () =
  (* Beale's classic degenerate LP cycles under textbook Dantzig pivoting
     without anti-cycling protection; the Bland fallback must terminate
     at the optimum -0.05 (x3 = 1). *)
  let m = Lp.Model.create () in
  let x0 = Lp.Model.add_var m ~obj:(-0.75) "x0" in
  let x1 = Lp.Model.add_var m ~obj:150.0 "x1" in
  let x2 = Lp.Model.add_var m ~obj:(-0.02) "x2" in
  let x3 = Lp.Model.add_var m ~obj:6.0 "x3" in
  Lp.Model.add_constr m
    [ (0.25, x0); (-60.0, x1); (-0.04, x2); (9.0, x3) ]
    Lp.Model.Le 0.0;
  Lp.Model.add_constr m
    [ (0.5, x0); (-90.0, x1); (-0.02, x2); (3.0, x3) ]
    Lp.Model.Le 0.0;
  Lp.Model.add_constr m [ (1.0, x2) ] Lp.Model.Le 1.0;
  let p = Lp.Model.compile m in
  let rr = Lp.Revised.solve p in
  Alcotest.(check bool) "terminates optimal" true
    (rr.Lp.Revised.status = Lp.Revised.Optimal);
  check_float "objective -1/20" (-0.05) rr.Lp.Revised.objective;
  let rd = Lp.Dense_simplex.solve p in
  check_float "oracle agrees" rd.Lp.Dense_simplex.objective
    rr.Lp.Revised.objective

let test_free_variable () =
  (* min x st x >= -5 handled via a free var and a constraint *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:Float.neg_infinity ~obj:1.0 "x" in
  Lp.Model.add_constr m [ (1.0, x) ] Lp.Model.Ge (-5.0);
  let p = Lp.Model.compile m in
  let rd = Lp.Dense_simplex.solve p in
  check_float "dense obj" (-5.0) rd.Lp.Dense_simplex.objective;
  let rr = Lp.Revised.solve p in
  check_float "revised obj" (-5.0) rr.Lp.Revised.objective

let test_negative_bounds () =
  (* min x + y with x in [-3,-1], y in [-2, 2], x + y >= -4 *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:(-3.0) ~ub:(-1.0) ~obj:1.0 "x" in
  let y = Lp.Model.add_var m ~lb:(-2.0) ~ub:2.0 ~obj:1.0 "y" in
  Lp.Model.add_constr m [ (1.0, x); (1.0, y) ] Lp.Model.Ge (-4.0);
  let p = Lp.Model.compile m in
  let rd = Lp.Dense_simplex.solve p in
  check_float "dense obj" (-4.0) rd.Lp.Dense_simplex.objective;
  let rr = Lp.Revised.solve p in
  Alcotest.(check bool) "optimal" true (rr.Lp.Revised.status = Lp.Revised.Optimal);
  check_float "revised obj" (-4.0) rr.Lp.Revised.objective

let test_degenerate () =
  (* multiple redundant constraints through the optimum *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~obj:(-1.0) "x" in
  let y = Lp.Model.add_var m ~obj:(-1.0) "y" in
  Lp.Model.add_constr m [ (1.0, x) ] Lp.Model.Le 1.0;
  Lp.Model.add_constr m [ (1.0, y) ] Lp.Model.Le 1.0;
  Lp.Model.add_constr m [ (1.0, x); (1.0, y) ] Lp.Model.Le 2.0;
  Lp.Model.add_constr m [ (2.0, x); (2.0, y) ] Lp.Model.Le 4.0;
  let p = Lp.Model.compile m in
  let rr = Lp.Revised.solve p in
  check_float "objective" (-2.0) rr.Lp.Revised.objective

(* ------------------------------------------------------------------ *)
(* Differential and property tests                                    *)
(* ------------------------------------------------------------------ *)

(* Random LP in inequality form with x >= 0 and rows a.x <= b, b >= 0:
   always feasible at x = 0 and bounded when costs are >= 0... we instead
   bound the feasible set with sum x <= K so any cost is safe. *)
let random_model rng =
  let nv = 1 + QCheck.Gen.int_bound 6 rng in
  let nr = 1 + QCheck.Gen.int_bound 6 rng in
  let m = Lp.Model.create () in
  let vars =
    Array.init nv (fun j ->
        let obj = QCheck.Gen.float_range (-5.0) 5.0 rng in
        let ub =
          if QCheck.Gen.bool rng then Float.infinity
          else QCheck.Gen.float_range 0.5 8.0 rng
        in
        Lp.Model.add_var m ~lb:0.0 ~ub ~obj (Printf.sprintf "x%d" j))
  in
  Lp.Model.add_constr m
    (Array.to_list (Array.map (fun v -> (1.0, v)) vars))
    Lp.Model.Le
    (4.0 +. QCheck.Gen.float_bound_inclusive 10.0 rng);
  for _ = 1 to nr do
    let terms =
      Array.to_list
        (Array.map (fun v -> (QCheck.Gen.float_range (-3.0) 3.0 rng, v)) vars)
    in
    let sense =
      match QCheck.Gen.int_bound 2 rng with
      | 0 -> Lp.Model.Le
      | 1 -> Lp.Model.Ge
      | _ -> Lp.Model.Eq
    in
    let rhs =
      match sense with
      | Lp.Model.Le -> QCheck.Gen.float_bound_inclusive 10.0 rng
      | Lp.Model.Ge -> -.QCheck.Gen.float_bound_inclusive 10.0 rng
      | Lp.Model.Eq -> 0.0
    in
    Lp.Model.add_constr m terms sense rhs
  done;
  Lp.Model.compile m

(* Status agreement with the dense oracle; on optima, a feasible point
   and the objective to 1e-4 relative. *)
let agrees_with_dense p (rd : Lp.Dense_simplex.result)
    (rr : Lp.Revised.result) =
  match (rd.Lp.Dense_simplex.status, rr.Lp.Revised.status) with
  | Lp.Dense_simplex.Optimal, Lp.Revised.Optimal ->
      if not (Lp.Model.feasible ~tol:1e-5 p rr.Lp.Revised.x) then
        QCheck.Test.fail_report "revised solution infeasible"
      else if
        Float.abs (rd.Lp.Dense_simplex.objective -. rr.Lp.Revised.objective)
        > 1e-4 *. (1.0 +. Float.abs rd.Lp.Dense_simplex.objective)
      then
        QCheck.Test.fail_reportf "objectives differ: dense %g revised %g"
          rd.Lp.Dense_simplex.objective rr.Lp.Revised.objective
      else true
  | Lp.Dense_simplex.Infeasible, Lp.Revised.Infeasible -> true
  | Lp.Dense_simplex.Unbounded, Lp.Revised.Unbounded -> true
  | sd, sr ->
      QCheck.Test.fail_reportf "status mismatch: dense %s revised %s"
        (match sd with
        | Lp.Dense_simplex.Optimal -> "optimal"
        | Lp.Dense_simplex.Infeasible -> "infeasible"
        | Lp.Dense_simplex.Unbounded -> "unbounded")
        (Fmt.str "%a" Lp.Revised.pp_status sr)

(* [~check:true] re-checks the basic point and the factors' structure at
   every pivot; it only observes. *)
let prop_differential =
  QCheck.Test.make ~count:300 ~name:"dense and revised simplex agree"
    QCheck.(make (fun rng -> random_model rng))
    (fun p ->
      agrees_with_dense p (Lp.Dense_simplex.solve p)
        (Lp.Revised.solve ~check:true p))

(* Guaranteed-feasible, guaranteed-bounded random LPs: every variable is
   boxed, and each row is constructed to hold at a known witness point
   x*, so both solvers must return Optimal — a sharper oracle than
   [prop_differential] (which mostly exercises status agreement) and the
   safety net for any solver-state-sharing bug the domain pool could
   introduce.  Tolerance 1e-6 relative. *)
let random_feasible_model rng =
  let nv = 1 + QCheck.Gen.int_bound 5 rng in
  let nr = 1 + QCheck.Gen.int_bound 5 rng in
  let m = Lp.Model.create () in
  let xstar = Array.init nv (fun _ -> QCheck.Gen.float_range 0.0 4.0 rng) in
  let vars =
    Array.init nv (fun j ->
        let ub = xstar.(j) +. QCheck.Gen.float_range 0.5 6.0 rng in
        let obj = QCheck.Gen.float_range (-4.0) 4.0 rng in
        Lp.Model.add_var m ~lb:0.0 ~ub ~obj (Printf.sprintf "x%d" j))
  in
  for _ = 1 to nr do
    let coefs =
      Array.init nv (fun _ -> QCheck.Gen.float_range (-2.0) 2.0 rng)
    in
    let at_star = ref 0.0 in
    Array.iteri (fun j c -> at_star := !at_star +. (c *. xstar.(j))) coefs;
    let terms =
      Array.to_list (Array.mapi (fun j v -> (coefs.(j), v)) vars)
    in
    (match QCheck.Gen.int_bound 2 rng with
    | 0 ->
        Lp.Model.add_constr m terms Lp.Model.Le
          (!at_star +. QCheck.Gen.float_bound_inclusive 5.0 rng)
    | 1 ->
        Lp.Model.add_constr m terms Lp.Model.Ge
          (!at_star -. QCheck.Gen.float_bound_inclusive 5.0 rng)
    | _ -> Lp.Model.add_constr m terms Lp.Model.Eq !at_star);
    ()
  done;
  Lp.Model.compile m

(* Both solvers must report Optimal on a constructed-feasible LP, agree
   on the objective to 1e-6 relative, and Revised's point must be
   feasible. *)
let agree_on_feasible p =
  let rd = Lp.Dense_simplex.solve p in
  let rr = Lp.Revised.solve p in
  match (rd.Lp.Dense_simplex.status, rr.Lp.Revised.status) with
  | Lp.Dense_simplex.Optimal, Lp.Revised.Optimal ->
      if not (Lp.Model.feasible ~tol:1e-6 p rr.Lp.Revised.x) then
        QCheck.Test.fail_report "revised solution infeasible"
      else if
        Float.abs (rd.Lp.Dense_simplex.objective -. rr.Lp.Revised.objective)
        > 1e-6 *. (1.0 +. Float.abs rd.Lp.Dense_simplex.objective)
      then
        QCheck.Test.fail_reportf "objectives differ: dense %.9g revised %.9g"
          rd.Lp.Dense_simplex.objective rr.Lp.Revised.objective
      else true
  | sd, sr ->
      QCheck.Test.fail_reportf
        "constructed-feasible LP not Optimal/Optimal: dense %s revised %s"
        (match sd with
        | Lp.Dense_simplex.Optimal -> "optimal"
        | Lp.Dense_simplex.Infeasible -> "infeasible"
        | Lp.Dense_simplex.Unbounded -> "unbounded")
        (Fmt.str "%a" Lp.Revised.pp_status sr)

let prop_differential_feasible =
  QCheck.Test.make ~count:300
    ~name:"dense and revised agree to 1e-6 on feasible LPs"
    QCheck.(make (fun rng -> random_feasible_model rng))
    agree_on_feasible

let prop_duality =
  QCheck.Test.make ~count:200 ~name:"strong duality identity holds"
    QCheck.(make (fun rng -> random_model rng))
    (fun p ->
      let r = Lp.Revised.solve p in
      match r.Lp.Revised.status with
      | Lp.Revised.Optimal ->
          (* objective = y.b + sum over nonbasic-at-bound structural vars of
             dj * xj.  We verify the weaker but solver-independent bound
             check: c.x >= y.b + sum_j min(dj*lb, dj*ub) for feasible dj
             signs -- in practice we check the exact identity. *)
          let yb = ref 0.0 in
          Array.iteri
            (fun i yi -> yb := !yb +. (yi *. p.Lp.Model.row_rhs.(i)))
            r.Lp.Revised.y;
          let corr = ref 0.0 in
          Array.iteri
            (fun j dj ->
              if Float.abs dj > 1e-7 then
                corr := !corr +. (dj *. r.Lp.Revised.x.(j)))
            r.Lp.Revised.dj;
          let lhs = r.Lp.Revised.objective in
          let rhs = !yb +. !corr in
          if Float.abs (lhs -. rhs) > 1e-4 *. (1.0 +. Float.abs lhs) then
            QCheck.Test.fail_reportf "duality identity: %g vs %g" lhs rhs
          else true
      | _ -> true)


(* ------------------------------------------------------------------ *)
(* Presolve                                                            *)
(* ------------------------------------------------------------------ *)

let test_presolve_fixed_vars () =
  (* x fixed at 2 by bounds; min y st y >= x -> 2 *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:2.0 ~ub:2.0 ~obj:0.0 "x" in
  let y = Lp.Model.add_var m ~obj:1.0 "y" in
  Lp.Model.add_constr m [ (1.0, y); (-1.0, x) ] Lp.Model.Ge 0.0;
  let p = Lp.Model.compile m in
  (match Lp.Presolve.reduce p with
  | Lp.Presolve.Reduced r ->
      (* x is fixed by bounds; the row then becomes the singleton
         [y >= 2], is turned into a bound, and y (now an empty column)
         is fixed at it: presolve solves this instance entirely *)
      Alcotest.(check int) "both columns dropped" 2 r.Lp.Presolve.dropped_cols;
      Alcotest.(check int) "row dropped" 1 r.Lp.Presolve.dropped_rows
  | Lp.Presolve.Proven_infeasible -> Alcotest.fail "not infeasible");
  let r = Lp.Presolve.solve p in
  check_float "objective" 2.0 r.Lp.Revised.objective;
  check_float "x restored" 2.0 r.Lp.Revised.x.(0);
  check_float "y" 2.0 r.Lp.Revised.x.(1)

let test_presolve_singleton_row () =
  (* 2x <= 6 becomes x <= 3; min -x -> -3 *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~obj:(-1.0) "x" in
  Lp.Model.add_constr m [ (2.0, x) ] Lp.Model.Le 6.0;
  let p = Lp.Model.compile m in
  (match Lp.Presolve.reduce p with
  | Lp.Presolve.Reduced r ->
      Alcotest.(check int) "row dropped" 1 r.Lp.Presolve.dropped_rows;
      (* the dropped row became a bound, then the empty column was fixed *)
      Alcotest.(check int) "no rows left" 0 r.Lp.Presolve.problem.Lp.Model.nr
  | Lp.Presolve.Proven_infeasible -> Alcotest.fail "not infeasible");
  let r = Lp.Presolve.solve p in
  check_float "objective" (-3.0) r.Lp.Revised.objective

let test_presolve_detects_infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:0.0 ~ub:1.0 "x" in
  Lp.Model.add_constr m [ (1.0, x) ] Lp.Model.Ge 5.0;
  let p = Lp.Model.compile m in
  match Lp.Presolve.reduce p with
  | Lp.Presolve.Proven_infeasible -> ()
  | Lp.Presolve.Reduced _ ->
      (* bound conflict must surface at the latest in the solve *)
      let r = Lp.Presolve.solve p in
      Alcotest.(check bool) "infeasible" true
        (r.Lp.Revised.status = Lp.Revised.Infeasible)


let test_presolve_doubleton_chain () =
  (* x + y = 4, y - z = 1, min x + z subject to z in [0, 2]:
     y = z + 1, x = 4 - y = 3 - z; objective = (3 - z) + z = 3 constant,
     any feasible z works; check restored consistency instead *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:Float.neg_infinity ~obj:1.0 "x" in
  let y = Lp.Model.add_var m ~lb:Float.neg_infinity "y" in
  let z = Lp.Model.add_var m ~lb:0.0 ~ub:2.0 ~obj:1.0 "z" in
  Lp.Model.add_constr m [ (1.0, x); (1.0, y) ] Lp.Model.Eq 4.0;
  Lp.Model.add_constr m [ (1.0, y); (-1.0, z) ] Lp.Model.Eq 1.0;
  let p = Lp.Model.compile m in
  (match Lp.Presolve.reduce p with
  | Lp.Presolve.Reduced r ->
      Alcotest.(check int) "both equality rows eliminated" 2
        r.Lp.Presolve.dropped_rows;
      Alcotest.(check bool) "at least two columns gone" true
        (r.Lp.Presolve.dropped_cols >= 2)
  | Lp.Presolve.Proven_infeasible -> Alcotest.fail "not infeasible");
  let r = Lp.Presolve.solve p in
  Alcotest.(check bool) "optimal" true (r.Lp.Revised.status = Lp.Revised.Optimal);
  check_float "objective" 3.0 r.Lp.Revised.objective;
  (* restored point satisfies the original equations *)
  check_float "x + y" 4.0 (r.Lp.Revised.x.(0) +. r.Lp.Revised.x.(1));
  check_float "y - z" 1.0 (r.Lp.Revised.x.(1) -. r.Lp.Revised.x.(2));
  ignore (x, y, z)

let test_presolve_doubleton_bound_transfer () =
  (* 2x = y with x in [1, 3]: y must land in [2, 6]; min y -> 2 *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:1.0 ~ub:3.0 "x" in
  let y = Lp.Model.add_var m ~lb:Float.neg_infinity ~obj:1.0 "y" in
  Lp.Model.add_constr m [ (2.0, x); (-1.0, y) ] Lp.Model.Eq 0.0;
  let p = Lp.Model.compile m in
  let r = Lp.Presolve.solve p in
  check_float "objective" 2.0 r.Lp.Revised.objective;
  check_float "x" 1.0 r.Lp.Revised.x.(0);
  ignore (x, y)

(* x - y = 0 and x - y + z >= 1, all in [0, 5], minimize x + y + z.  The
   doubleton row eliminates y as x, which cancels x out of the second
   row; that row is then the singleton z >= 1.  Both x and z end up in
   no live row, so presolve fixes them and solves the model outright. *)
let cancelling_model () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:5.0 ~obj:1.0 "x" in
  let y = Lp.Model.add_var m ~ub:5.0 ~obj:1.0 "y" in
  let z = Lp.Model.add_var m ~ub:5.0 ~obj:1.0 "z" in
  Lp.Model.add_constr m [ (1.0, x); (-1.0, y) ] Lp.Model.Eq 0.0;
  Lp.Model.add_constr m [ (1.0, x); (-1.0, y); (1.0, z) ] Lp.Model.Ge 1.0;
  Lp.Model.compile m

let reduce_exn p =
  match Lp.Presolve.reduce p with
  | Lp.Presolve.Reduced r -> r
  | Lp.Presolve.Proven_infeasible -> Alcotest.fail "not infeasible"

let test_presolve_cancellation () =
  let r = reduce_exn (cancelling_model ()) in
  match r.Lp.Presolve.state.(0) with
  | Lp.Presolve.Fixed v -> check_float "x fixed at its lower bound" 0.0 v
  | _ -> Alcotest.fail "x cancelled out of every live row but was not fixed"

let test_presolve_singleton_death () =
  let p = cancelling_model () in
  let r = reduce_exn p in
  (match r.Lp.Presolve.state.(2) with
  | Lp.Presolve.Fixed v -> check_float "z fixed at the singleton's bound" 1.0 v
  | _ -> Alcotest.fail "z left only in a dead singleton row but was not fixed");
  Alcotest.(check int) "dropped cols" 3 r.Lp.Presolve.dropped_cols;
  Alcotest.(check (pair int int)) "reduced to 0x0" (0, 0)
    (r.Lp.Presolve.problem.Lp.Model.nr, r.Lp.Presolve.problem.Lp.Model.nv);
  check_float "objective" 1.0 (Lp.Presolve.solve p).Lp.Revised.objective

let test_presolve_counters () =
  let s0 = Lp.Stats.snapshot () in
  ignore (reduce_exn (cancelling_model ()));
  let s1 = Lp.Stats.snapshot () in
  Alcotest.(check (list int)) "calls, rows dropped, cols dropped" [ 1; 2; 3 ]
    [
      s1.Lp.Stats.presolve_calls - s0.Lp.Stats.presolve_calls;
      s1.Lp.Stats.presolve_rows_dropped - s0.Lp.Stats.presolve_rows_dropped;
      s1.Lp.Stats.presolve_cols_dropped - s0.Lp.Stats.presolve_cols_dropped;
    ];
  Alcotest.(check bool) "wall time summed" true
    (s1.Lp.Stats.presolve_s >= s0.Lp.Stats.presolve_s);
  match Putil.Obs.stats_json () with
  | Putil.Obs.Assoc kvs -> (
      match List.assoc_opt "lp" kvs with
      | Some (Putil.Obs.Assoc lp) ->
          List.iter
            (fun k ->
              Alcotest.(check bool) ("lp stats carry " ^ k) true (List.mem_assoc k lp))
            [ "presolve_calls"; "presolve_s"; "presolve_rows_dropped"; "presolve_cols_dropped" ]
      | _ -> Alcotest.fail "no lp stats provider")
  | _ -> Alcotest.fail "stats_json is not an object"

(* Sparse random LPs that presolve acts on ([random_model]'s dense rows
   rarely let it): each row touches 0-3 distinct columns and about half
   are equalities; some columns are fixed, some free below, some in no
   row.  Each RHS is the row's value at a random point inside the
   bounds, so most models are feasible. *)
let random_sparse_model rng =
  let open QCheck.Gen in
  let nv = 1 + int_bound 7 rng and nr = int_bound 7 rng in
  let m = Lp.Model.create () in
  let point = Array.make nv 0.0 in
  let vars =
    Array.init nv (fun j ->
        let obj = if int_bound 3 rng = 0 then 0.0 else float_range (-3.0) 3.0 rng in
        let lb, ub =
          match int_bound 4 rng with
          | 0 ->
              let v = float_range (-2.0) 2.0 rng in
              point.(j) <- v;
              (v, v)
          | 1 ->
              let ub = float_range (-1.0) 4.0 rng in
              point.(j) <- ub -. float_bound_inclusive 3.0 rng;
              (Float.neg_infinity, ub)
          | _ ->
              let lb = float_range (-2.0) 2.0 rng in
              let w = float_range 0.5 5.0 rng in
              point.(j) <- lb +. float_bound_inclusive w rng;
              (lb, lb +. w)
        in
        Lp.Model.add_var m ~lb ~ub ~obj (Printf.sprintf "x%d" j))
  in
  for _ = 1 to nr do
    let k = min nv (int_bound 3 rng) in
    let cols = List.filteri (fun i _ -> i < k) (shuffle_l (List.init nv Fun.id) rng) in
    let terms =
      List.map
        (fun j ->
          let c = float_range 0.5 3.0 rng in
          ((if bool rng then c else -.c), j))
        cols
    in
    let at_point = List.fold_left (fun s (c, j) -> s +. (c *. point.(j))) 0.0 terms in
    let sense, rhs =
      match int_bound 3 rng with
      | 0 | 1 -> (Lp.Model.Eq, at_point)
      | 2 -> (Lp.Model.Le, at_point +. float_bound_inclusive 2.0 rng)
      | _ -> (Lp.Model.Ge, at_point -. float_bound_inclusive 2.0 rng)
    in
    Lp.Model.add_constr m (List.map (fun (c, j) -> (c, vars.(j))) terms) sense rhs
  done;
  Lp.Model.compile m

let prop_presolve_sparse =
  QCheck.Test.make ~count:500 ~name:"presolve reaches its fixpoint on sparse LPs"
    QCheck.(make (fun rng -> random_sparse_model rng))
    (fun p ->
      (match Lp.Presolve.reduce p with
      | Lp.Presolve.Proven_infeasible -> ()
      | Lp.Presolve.Reduced r ->
          let q = r.Lp.Presolve.problem in
          let colptr = q.Lp.Model.a.Lp.Sparse.Csc.colptr in
          for k = 0 to q.Lp.Model.nv - 1 do
            let c = q.Lp.Model.obj.(k) in
            if
              colptr.(k) = colptr.(k + 1)
              && not
                   (q.Lp.Model.integer.(k)
                   || (c > 0.0 && q.Lp.Model.lb.(k) = Float.neg_infinity)
                   || (c < 0.0 && q.Lp.Model.ub.(k) = Float.infinity))
            then
              QCheck.Test.fail_reportf "kept empty column %d (obj %g, [%g, %g])"
                r.Lp.Presolve.keep_vars.(k) c q.Lp.Model.lb.(k) q.Lp.Model.ub.(k)
          done);
      let rd = Lp.Dense_simplex.solve p in
      let rp = Lp.Presolve.solve p in
      match (rd.Lp.Dense_simplex.status, rp.Lp.Revised.status) with
      | Lp.Dense_simplex.Optimal, Lp.Revised.Optimal ->
          let a = rd.Lp.Dense_simplex.objective and b = rp.Lp.Revised.objective in
          if Float.abs (a -. b) > 1e-6 *. Float.max 1.0 (Float.abs a) then
            QCheck.Test.fail_reportf "objectives differ: dense %.9g presolve %.9g" a b
          else true
      | Lp.Dense_simplex.Infeasible, Lp.Revised.Infeasible
      | Lp.Dense_simplex.Unbounded, Lp.Revised.Unbounded ->
          true
      | _, s ->
          QCheck.Test.fail_reportf "status mismatch: dense %s presolve %a"
            (match rd.Lp.Dense_simplex.status with
            | Lp.Dense_simplex.Optimal -> "optimal"
            | Lp.Dense_simplex.Infeasible -> "infeasible"
            | Lp.Dense_simplex.Unbounded -> "unbounded")
            Lp.Revised.pp_status s)

let prop_presolve_equivalent =
  QCheck.Test.make ~count:300 ~name:"presolve preserves the optimum"
    QCheck.(make (fun rng -> random_model rng))
    (fun p ->
      let direct = Lp.Revised.solve p in
      let pre = Lp.Presolve.solve p in
      match (direct.Lp.Revised.status, pre.Lp.Revised.status) with
      | Lp.Revised.Optimal, Lp.Revised.Optimal ->
          if not (Lp.Model.feasible ~tol:1e-5 p pre.Lp.Revised.x) then
            QCheck.Test.fail_report "presolved solution infeasible"
          else if
            Float.abs (direct.Lp.Revised.objective -. pre.Lp.Revised.objective)
            > 1e-4 *. (1.0 +. Float.abs direct.Lp.Revised.objective)
          then
            QCheck.Test.fail_reportf "objectives differ: %g vs %g"
              direct.Lp.Revised.objective pre.Lp.Revised.objective
          else true
      | Lp.Revised.Infeasible, Lp.Revised.Infeasible -> true
      | Lp.Revised.Unbounded, Lp.Revised.Unbounded -> true
      | a, b ->
          QCheck.Test.fail_reportf "status mismatch: %a vs %a"
            Lp.Revised.pp_status a Lp.Revised.pp_status b)

(* ------------------------------------------------------------------ *)
(* MILP                                                                *)
(* ------------------------------------------------------------------ *)

let test_milp_knapsack () =
  (* max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binaries.
     best: a + c = 17 vs b + c = 20 -> 20 *)
  let m = Lp.Model.create () in
  let a = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-10.0) "a" in
  let b = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-13.0) "b" in
  let c = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-7.0) "c" in
  Lp.Model.add_constr m [ (3.0, a); (4.0, b); (2.0, c) ] Lp.Model.Le 6.0;
  let p = Lp.Model.compile m in
  let r = Lp.Milp.solve p in
  Alcotest.(check bool) "optimal" true (r.Lp.Milp.status = Lp.Milp.Optimal);
  check_float "objective" (-20.0) r.Lp.Milp.objective;
  check_float "b" 1.0 r.Lp.Milp.x.(1);
  check_float "c" 1.0 r.Lp.Milp.x.(2)

let test_milp_relaxation_bound () =
  let m = Lp.Model.create () in
  let a = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-5.0) "a" in
  let b = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-4.0) "b" in
  Lp.Model.add_constr m [ (2.0, a); (3.0, b) ] Lp.Model.Le 4.0;
  let p = Lp.Model.compile m in
  let r = Lp.Milp.solve p in
  Alcotest.(check bool) "optimal" true (r.Lp.Milp.status = Lp.Milp.Optimal);
  Alcotest.(check bool) "relaxation lower-bounds milp (min)" true
    (r.Lp.Milp.relaxation <= r.Lp.Milp.objective +. 1e-6)

let test_milp_integer_general () =
  (* min -x - y, x,y integer >= 0, 2x + 5y <= 11, 4x + y <= 9:
     candidates: x=2,y=1 -> -3 ... x=1,y=1 (-2), x=2,y=1: 2*2+5=9<=11,
     8+1=9<=9 ok -> obj -3; x=0,y=2: -2. answer -3. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~integer:true ~obj:(-1.0) "x" in
  let y = Lp.Model.add_var m ~integer:true ~obj:(-1.0) "y" in
  Lp.Model.add_constr m [ (2.0, x); (5.0, y) ] Lp.Model.Le 11.0;
  Lp.Model.add_constr m [ (4.0, x); (1.0, y) ] Lp.Model.Le 9.0;
  let p = Lp.Model.compile m in
  let r = Lp.Milp.solve p in
  check_float "objective" (-3.0) r.Lp.Milp.objective

let test_milp_infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:1.0 "x" in
  Lp.Model.add_constr m [ (2.0, x) ] Lp.Model.Ge 3.0;
  let p = Lp.Model.compile m in
  let r = Lp.Milp.solve p in
  Alcotest.(check bool) "infeasible" true (r.Lp.Milp.status = Lp.Milp.Infeasible)

(* Random small binary knapsack; returns the compiled problem together
   with the raw data so properties can brute-force it. *)
let random_binary_knapsack rng =
  let nv = 2 + QCheck.Gen.int_bound 3 rng in
  let m = Lp.Model.create () in
  let obj = Array.init nv (fun _ -> QCheck.Gen.float_range (-5.0) 5.0 rng) in
  let vars =
    Array.init nv (fun j ->
        Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:obj.(j)
          (Printf.sprintf "b%d" j))
  in
  let coefs = Array.init nv (fun _ -> QCheck.Gen.float_range 0.0 4.0 rng) in
  let cap = QCheck.Gen.float_range 1.0 8.0 rng in
  Lp.Model.add_constr m
    (Array.to_list (Array.mapi (fun j v -> (coefs.(j), v)) vars))
    Lp.Model.Le cap;
  (Lp.Model.compile m, obj, coefs, cap)

let prop_milp_vs_bruteforce =
  (* random small binary problems: compare with exhaustive enumeration *)
  QCheck.Test.make ~count:100 ~name:"milp matches brute force on binaries"
    QCheck.(make (fun rng -> rng))
    (fun rng ->
      let p, obj, coefs, cap = random_binary_knapsack rng in
      let nv = p.Lp.Model.nv in
      let r = Lp.Milp.solve p in
      (* brute force *)
      let best = ref Float.infinity in
      for mask = 0 to (1 lsl nv) - 1 do
        let w = ref 0.0 and o = ref 0.0 in
        for j = 0 to nv - 1 do
          if mask land (1 lsl j) <> 0 then begin
            w := !w +. coefs.(j);
            o := !o +. obj.(j)
          end
        done;
        if !w <= cap +. 1e-9 && !o < !best then best := !o
      done;
      match r.Lp.Milp.status with
      | Lp.Milp.Optimal ->
          if Float.abs (r.Lp.Milp.objective -. !best) > 1e-5 then
            QCheck.Test.fail_reportf "milp %g vs brute %g" r.Lp.Milp.objective
              !best
          else true
      | _ -> QCheck.Test.fail_report "milp not optimal on feasible instance")

let prop_milp_warm_equals_cold =
  (* parent-basis warm starts are a pure performance device: the search
     must reach the same status and objective as cold node solves *)
  QCheck.Test.make ~count:100 ~name:"warm-started b&b matches cold b&b"
    QCheck.(make (fun rng -> rng))
    (fun rng ->
      let p, _, _, _ = random_binary_knapsack rng in
      let rw = Lp.Milp.solve ~warm:true p in
      let rc = Lp.Milp.solve ~warm:false p in
      if rw.Lp.Milp.status <> rc.Lp.Milp.status then
        QCheck.Test.fail_report "warm and cold b&b status differ"
      else
        match rw.Lp.Milp.status with
        | Lp.Milp.Optimal ->
            if
              Float.abs (rw.Lp.Milp.objective -. rc.Lp.Milp.objective)
              > 1e-9 *. (1.0 +. Float.abs rc.Lp.Milp.objective)
            then
              QCheck.Test.fail_reportf "objectives differ: warm %.12g cold %.12g"
                rw.Lp.Milp.objective rc.Lp.Milp.objective
            else true
        | _ -> true)

(* A crafted limit-probing instance (solved with [int_tol = 0.3]).  x and
   y sit on the segment x + y <= 1.5, u is near-integral at 0.25 — so
   snapping an "integral" node lifts its objective 0.3 above its bound,
   keeping strictly-better-bound subtrees alive after the first incumbent
   — and the w-chain under x spawns those subtrees one at a time.  The
   integer optimum is (x, y) = (0, 1): objective -2.  With [chain = n],
   n ballast variables t_i are added with rows t_1 >= w2 - 0.5,
   t_{i+1} >= t_i and t_n <= 0.4: feasible (all zero) while w2 <= 0.5,
   but the branch that forces w2 = 1 is infeasible in a way phase-1 only
   discovers after walking the whole chain — a child LP needing ~n
   iterations where the root needs ~8. *)
let milp_limits_model ?(chain = 0) () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-1.0) "x" in
  let y = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-2.0) "y" in
  let u = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-1.2) "u" in
  let w1 = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-0.4) "w1" in
  let w2 = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-0.2) "w2" in
  let w3 = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-1.8) "w3" in
  Lp.Model.add_constr m [ (1.0, x); (1.0, y) ] Lp.Model.Le 1.5;
  Lp.Model.add_constr m [ (1.0, u) ] Lp.Model.Le 0.25;
  List.iter
    (fun w ->
      Lp.Model.add_constr m [ (1.0, w) ] Lp.Model.Le 0.45;
      Lp.Model.add_constr m [ (1.0, w); (-1.0, x) ] Lp.Model.Le 0.0)
    [ w1; w2; w3 ];
  if chain > 0 then begin
    let t =
      Array.init chain (fun i ->
          Lp.Model.add_var m ~lb:0.0 ~ub:1.0 ~obj:0.0
            (Printf.sprintf "t%d" i))
    in
    Lp.Model.add_constr m [ (1.0, t.(0)); (-1.0, w2) ] Lp.Model.Ge (-0.5);
    for i = 0 to chain - 2 do
      Lp.Model.add_constr m [ (1.0, t.(i + 1)); (-1.0, t.(i)) ] Lp.Model.Ge 0.0
    done;
    Lp.Model.add_constr m [ (1.0, t.(chain - 1)) ] Lp.Model.Le 0.4
  end;
  Lp.Model.compile m

(* Regression: hitting [max_nodes] must report [Node_limit], never
   [Optimal] — the incumbent, when one exists, is not proven optimal. *)
let test_milp_node_limit_with_incumbent () =
  let p = milp_limits_model () in
  let full = Lp.Milp.solve ~int_tol:0.3 p in
  Alcotest.(check bool) "full search optimal" true
    (full.Lp.Milp.status = Lp.Milp.Optimal);
  check_float "full objective" (-2.0) full.Lp.Milp.objective;
  let r1 = Lp.Milp.solve ~int_tol:0.3 ~max_nodes:1 p in
  Alcotest.(check bool) "tiny budget is inconclusive" true
    (r1.Lp.Milp.status = Lp.Milp.Node_limit);
  (* probe node budgets upward: at some budget the search holds an
     incumbent when the limit fires, and must still say Node_limit *)
  let found = ref false in
  for k = 1 to full.Lp.Milp.nodes do
    if not !found then begin
      let r = Lp.Milp.solve ~int_tol:0.3 ~max_nodes:k p in
      if
        r.Lp.Milp.status = Lp.Milp.Node_limit
        && not (Float.is_nan r.Lp.Milp.objective)
      then begin
        found := true;
        (* the incumbent itself is reported alongside the honest status *)
        check_float "incumbent objective" (-2.0) r.Lp.Milp.objective
      end
    end
  done;
  Alcotest.(check bool) "some budget stops holding an incumbent" true !found

(* Regression: a child LP stopping on its iteration limit silently prunes
   that subtree, so the search is inconclusive — [Node_limit], even
   though an incumbent exists by then. *)
let test_milp_child_iter_limit () =
  let p = milp_limits_model ~chain:30 () in
  let root = Lp.Revised.solve p in
  (* above every feasible node's needs, well below the ballast chain *)
  let lim = root.Lp.Revised.iterations + 10 in
  Alcotest.(check bool) "limit sits inside the designed window" true
    (lim > root.Lp.Revised.iterations && lim < 30);
  let r = Lp.Milp.solve ~int_tol:0.3 ~warm:false ~lp_max_iter:lim p in
  Alcotest.(check bool) "child Iter_limit propagates as Node_limit" true
    (r.Lp.Milp.status = Lp.Milp.Node_limit);
  check_float "incumbent objective still reported" (-2.0) r.Lp.Milp.objective;
  (* the ballast is inert in a full solve *)
  let full = Lp.Milp.solve ~int_tol:0.3 p in
  Alcotest.(check bool) "full search optimal" true
    (full.Lp.Milp.status = Lp.Milp.Optimal);
  check_float "full objective" (-2.0) full.Lp.Milp.objective

(* Pin the budget boundary.  [max_nodes] only interrupts a search whose
   frontier is still open, so statuses are monotone in the budget: below
   some threshold the search is inconclusive ([Node_limit]), at and
   above it the proof completes ([Optimal]) — and an Optimal at budget k
   can never regress at budget k+1.  A budget equal to the full node
   count always suffices. *)
let test_milp_node_budget_boundary () =
  let p = milp_limits_model () in
  let full = Lp.Milp.solve ~int_tol:0.3 p in
  Alcotest.(check bool) "full search optimal" true
    (full.Lp.Milp.status = Lp.Milp.Optimal);
  Alcotest.(check bool) "search is multi-node" true (full.Lp.Milp.nodes > 1);
  let first_opt = ref 0 in
  for k = 1 to full.Lp.Milp.nodes do
    let r = Lp.Milp.solve ~int_tol:0.3 ~max_nodes:k p in
    match r.Lp.Milp.status with
    | Lp.Milp.Optimal ->
        if !first_opt = 0 then first_opt := k;
        check_float "proved objective" (-2.0) r.Lp.Milp.objective
    | Lp.Milp.Node_limit ->
        if !first_opt <> 0 then
          Alcotest.failf "budget %d regressed to Node_limit after Optimal at %d"
            k !first_opt
    | _ -> Alcotest.fail "unexpected status under a node budget"
  done;
  Alcotest.(check bool) "a too-small budget is inconclusive" true
    (!first_opt > 1);
  Alcotest.(check bool) "the full node count always suffices" true
    (!first_opt > 0 && !first_opt <= full.Lp.Milp.nodes)

(* The root relaxation hitting its own iteration limit is inconclusive
   before any incumbent can exist: [Node_limit] with a NaN objective. *)
let test_milp_root_iter_limit () =
  let p = milp_limits_model () in
  let root = Lp.Revised.solve p in
  Alcotest.(check bool) "root needs more than two pivots" true
    (root.Lp.Revised.iterations > 2);
  let r = Lp.Milp.solve ~int_tol:0.3 ~lp_max_iter:2 p in
  Alcotest.(check bool) "root Iter_limit propagates as Node_limit" true
    (r.Lp.Milp.status = Lp.Milp.Node_limit);
  Alcotest.(check bool) "no incumbent to report" true
    (Float.is_nan r.Lp.Milp.objective)

(* ------------------------------------------------------------------ *)
(* Warm starts                                                         *)
(* ------------------------------------------------------------------ *)

let test_warm_rhs_resolve () =
  (* re-solve model_basic with tightened RHS from the previous basis:
     max x + 2y st x + y <= 5, y <= 2.5, x <= 4 -> (2.5, 2.5), obj -7.5 *)
  let p = model_basic () in
  let r0 = Lp.Revised.solve p in
  let b =
    match r0.Lp.Revised.basis with
    | Some b -> b
    | None -> Alcotest.fail "no basis returned"
  in
  let rhs = [| 5.0; 2.5 |] in
  let cold = Lp.Revised.solve ~rhs p in
  let warm = Lp.Revised.solve ~rhs ~warm:b p in
  Alcotest.(check bool) "warm optimal" true
    (warm.Lp.Revised.status = Lp.Revised.Optimal);
  check_float "matches cold" cold.Lp.Revised.objective warm.Lp.Revised.objective;
  check_float "objective" (-7.5) warm.Lp.Revised.objective

let prop_warm_resolve =
  (* the tentpole property: solving a perturbed instance from the
     previous optimal basis agrees with a cold solve of that instance in
     status and (to 1e-6) objective *)
  QCheck.Test.make ~count:300
    ~name:"warm re-solve after rhs/bound perturbation matches cold"
    QCheck.(make (fun rng -> rng))
    (fun rng ->
      let p = random_feasible_model rng in
      let r0 = Lp.Revised.solve p in
      match (r0.Lp.Revised.status, r0.Lp.Revised.basis) with
      | Lp.Revised.Optimal, Some b ->
          let rhs =
            Array.map
              (fun v -> v +. QCheck.Gen.float_range (-0.5) 0.5 rng)
              p.Lp.Model.row_rhs
          in
          let ub =
            Array.mapi
              (fun j u ->
                if Float.is_finite u then
                  Float.max p.Lp.Model.lb.(j)
                    (u +. QCheck.Gen.float_range (-0.3) 0.5 rng)
                else u)
              p.Lp.Model.ub
          in
          let cold = Lp.Revised.solve ~rhs ~ub p in
          let warm = Lp.Revised.solve ~rhs ~ub ~warm:b p in
          if cold.Lp.Revised.status <> warm.Lp.Revised.status then
            QCheck.Test.fail_reportf "status mismatch: cold %a warm %a"
              Lp.Revised.pp_status cold.Lp.Revised.status Lp.Revised.pp_status
              warm.Lp.Revised.status
          else (
            match cold.Lp.Revised.status with
            | Lp.Revised.Optimal ->
                if
                  Float.abs
                    (cold.Lp.Revised.objective -. warm.Lp.Revised.objective)
                  > 1e-6 *. (1.0 +. Float.abs cold.Lp.Revised.objective)
                then
                  QCheck.Test.fail_reportf
                    "objectives differ: cold %.9g warm %.9g"
                    cold.Lp.Revised.objective warm.Lp.Revised.objective
                else true
            | _ -> true)
      | _ -> true)


(* --- the dual ratio test's selection -------------------------------- *)

(* The oracle: the selection as it was before the heap, a full in-place
   quicksort of the candidates by (ratio asc, |alpha| desc, column asc),
   a bound-flip walk from the head that never takes the last candidate,
   and a Harris pass over the rest in sorted order. *)
let sorted_select ratio alpha col nc ~flip =
  let dc_lt (r1 : float) (a1 : float) (j1 : int) r2 a2 j2 =
    r1 < r2 || (r1 = r2 && (a1 > a2 || (a1 = a2 && j1 < j2)))
  in
  let dc_swap i j =
    let tr = ratio.(i) in
    ratio.(i) <- ratio.(j);
    ratio.(j) <- tr;
    let ta = alpha.(i) in
    alpha.(i) <- alpha.(j);
    alpha.(j) <- ta;
    let tj = col.(i) in
    col.(i) <- col.(j);
    col.(j) <- tj
  in
  let rec dc_sort lo_ hi_ =
    if hi_ - lo_ >= 12 then begin
      let mid = (lo_ + hi_) / 2 in
      let pr = ratio.(mid) and pa = alpha.(mid) and pj = col.(mid) in
      let i = ref lo_ and j = ref hi_ in
      while !i <= !j do
        while dc_lt ratio.(!i) alpha.(!i) col.(!i) pr pa pj do
          incr i
        done;
        while dc_lt pr pa pj ratio.(!j) alpha.(!j) col.(!j) do
          decr j
        done;
        if !i <= !j then begin
          dc_swap !i !j;
          incr i;
          decr j
        end
      done;
      dc_sort lo_ !j;
      dc_sort !i hi_
    end
    else
      for k = lo_ + 1 to hi_ do
        let r = ratio.(k) and a = alpha.(k) and j = col.(k) in
        let t = ref k in
        while !t > lo_ && dc_lt r a j ratio.(!t - 1) alpha.(!t - 1) col.(!t - 1)
        do
          ratio.(!t) <- ratio.(!t - 1);
          alpha.(!t) <- alpha.(!t - 1);
          col.(!t) <- col.(!t - 1);
          decr t
        done;
        ratio.(!t) <- r;
        alpha.(!t) <- a;
        col.(!t) <- j
      done
  in
  dc_sort 0 (nc - 1);
  let tpos = ref 0 in
  while !tpos < nc - 1 && flip col.(!tpos) alpha.(!tpos) do
    incr tpos
  done;
  let r_e = ratio.(!tpos) in
  let best_a = ref alpha.(!tpos) and best_j = ref col.(!tpos) in
  for q = !tpos + 1 to nc - 1 do
    let a = alpha.(q) in
    if a > !best_a && (ratio.(q) *. a) -. (r_e *. a) <= 1e-7 then begin
      best_a := a;
      best_j := col.(q)
    end
  done;
  !best_j

type cand_kind = Boxed of float | One_sided | Free

(* A candidate set with many exact ties in ratio and in |alpha| (and
   near-ties inside the Harris tolerance), distinct columns of mixed
   kinds, and a violation that lets the walk flip none, some, or all
   but one of the candidates. *)
let gen_candidates =
  let open QCheck.Gen in
  let* n = int_range 1 40 in
  let* all_boxed = frequency [ (2, return false); (1, return true) ] in
  let* ratio =
    array_repeat n
      (oneofl [ 0.0; 1e-9; 0.5; 0.5 +. 1e-8; 0.5 +. 1e-6; 1.0; 2.0; 3.75 ])
  in
  let* alpha = array_repeat n (oneofl [ 1e-3; 0.25; 0.5; 1.0; 1.0 +. 1e-9; 4.0 ]) in
  let cols = Array.init (3 * n) Fun.id in
  let* () = shuffle_a cols in
  let* kinds =
    array_repeat n
      (if all_boxed then map (fun r -> Boxed r) (oneofl [ 0.1; 1.0; 2.5 ])
       else
         frequency
           [
             (3, map (fun r -> Boxed r) (oneofl [ 0.1; 1.0; 2.5 ]));
             (1, return One_sided);
             (1, return Free);
           ])
  in
  let* viol =
    if all_boxed then return 1e9
    else oneofl [ 1e-9; 0.05; 0.3; 1.0; 4.0; 20.0 ]
  in
  return (ratio, alpha, Array.sub cols 0 n, kinds, viol)

let print_candidates (ratio, alpha, cols, kinds, viol) =
  let kind = function
    | Boxed r -> Printf.sprintf "boxed %g" r
    | One_sided -> "one-sided"
    | Free -> "free"
  in
  Printf.sprintf "viol %g: %s" viol
    (String.concat "; "
       (List.init (Array.length cols) (fun i ->
            Printf.sprintf "col %d ratio %h alpha %h %s" cols.(i) ratio.(i)
              alpha.(i) (kind kinds.(i)))))

let prop_dual_select_oracle =
  QCheck.Test.make ~count:2000
    ~name:"heap ratio-test selection matches sort-then-walk"
    (QCheck.make ~print:print_candidates gen_candidates)
    (fun (ratio, alpha, cols, kinds, viol) ->
      let n = Array.length cols in
      let kind_of = Hashtbl.create n in
      Array.iteri (fun i j -> Hashtbl.replace kind_of j kinds.(i)) cols;
      (* the revised simplex's flip rule, recording what it takes *)
      let run select =
        let remaining = ref viol and flips = ref [] in
        let flip j a =
          match Hashtbl.find kind_of j with
          | Boxed range when a *. range < !remaining -. 1e-7 ->
              remaining := !remaining -. (a *. range);
              flips := j :: !flips;
              true
          | _ -> false
        in
        let je =
          select (Array.copy ratio) (Array.copy alpha) (Array.copy cols) n ~flip
        in
        (List.rev !flips, je)
      in
      let flips_o, je_o = run sorted_select in
      let flips_h, je_h =
        run (fun ratio alpha col n ~flip ->
            Lp.Revised.dual_select ~ratio ~alpha ~col n ~flip)
      in
      if flips_o <> flips_h || je_o <> je_h then
        QCheck.Test.fail_reportf
          "oracle flips [%s] enters %d; heap flips [%s] enters %d"
          (String.concat "; " (List.map string_of_int flips_o))
          je_o
          (String.concat "; " (List.map string_of_int flips_h))
          je_h
      else true)

(* Larger random LPs: exercises refactorization, partial pricing and
   bound flips harder than the small differential test. *)
let random_model_large rng =
  let nv = 15 + QCheck.Gen.int_bound 20 rng in
  let nr = 10 + QCheck.Gen.int_bound 20 rng in
  let m = Lp.Model.create () in
  let vars =
    Array.init nv (fun j ->
        let obj = QCheck.Gen.float_range (-3.0) 3.0 rng in
        let ub =
          if QCheck.Gen.bool rng then Float.infinity
          else QCheck.Gen.float_range 0.5 6.0 rng
        in
        Lp.Model.add_var m ~lb:0.0 ~ub ~obj (Printf.sprintf "x%d" j))
  in
  (* bounded feasible region *)
  Lp.Model.add_constr m
    (Array.to_list (Array.map (fun v -> (1.0, v)) vars))
    Lp.Model.Le
    (10.0 +. QCheck.Gen.float_bound_inclusive 30.0 rng);
  for _ = 1 to nr do
    (* sparse rows: 3-6 terms *)
    let k = 3 + QCheck.Gen.int_bound 3 rng in
    let terms =
      List.init k (fun _ ->
          ( QCheck.Gen.float_range (-2.0) 2.0 rng,
            vars.(QCheck.Gen.int_bound (nv - 1) rng) ))
    in
    let sense =
      match QCheck.Gen.int_bound 2 rng with
      | 0 -> Lp.Model.Le
      | 1 -> Lp.Model.Ge
      | _ -> Lp.Model.Eq
    in
    let rhs =
      match sense with
      | Lp.Model.Le -> QCheck.Gen.float_bound_inclusive 8.0 rng
      | Lp.Model.Ge -> -.QCheck.Gen.float_bound_inclusive 8.0 rng
      | Lp.Model.Eq -> QCheck.Gen.float_range (-1.0) 1.0 rng
    in
    Lp.Model.add_constr m terms sense rhs
  done;
  Lp.Model.compile m

(* Presolved, and unpresolved under [~check:true]. *)
let prop_differential_large =
  QCheck.Test.make ~count:60 ~name:"dense and revised agree on larger LPs"
    QCheck.(make (fun rng -> random_model_large rng))
    (fun p ->
      let rd = Lp.Dense_simplex.solve p in
      agrees_with_dense p rd (Lp.Presolve.solve p)
      && agrees_with_dense p rd (Lp.Revised.solve ~check:true p))

(* Production-size random LPs: more than 160 rows and 512 columns, so
   the partial-pricing window ([max 512 (total/8)] of the columns), the
   fill-ratio refactorization and the hypersparse reach cutoff all
   engage — which no smaller oracle reaches.  Sparse rows of 3-8 terms
   hold at a witness point x* >= 0 and one dense budget row bounds the
   region, as the event LP's power rows do, so every instance is
   feasible and bounded.  Few columns are boxed: [Dense_simplex] turns
   each finite upper bound into a tableau row. *)
let random_model_production rng =
  let nv = 520 + QCheck.Gen.int_bound 60 rng in
  let nr = 165 + QCheck.Gen.int_bound 30 rng in
  let m = Lp.Model.create () in
  let xstar =
    Array.init nv (fun _ ->
        if QCheck.Gen.int_bound 2 rng = 0 then 0.0
        else QCheck.Gen.float_range 0.0 3.0 rng)
  in
  let vars =
    Array.init nv (fun j ->
        let ub =
          if QCheck.Gen.int_bound 15 rng = 0 then
            xstar.(j) +. QCheck.Gen.float_range 0.5 4.0 rng
          else Float.infinity
        in
        let obj = QCheck.Gen.float_range (-2.0) 3.0 rng in
        Lp.Model.add_var m ~lb:0.0 ~ub ~obj (Printf.sprintf "x%d" j))
  in
  Lp.Model.add_constr m
    (Array.to_list (Array.map (fun v -> (1.0, v)) vars))
    Lp.Model.Le
    (Array.fold_left ( +. ) 0.0 xstar
    +. QCheck.Gen.float_range 5.0 50.0 rng);
  for _ = 2 to nr do
    let k = 3 + QCheck.Gen.int_bound 5 rng in
    let cols = List.init k (fun _ -> QCheck.Gen.int_bound (nv - 1) rng) in
    let coefs = List.map (fun _ -> QCheck.Gen.float_range (-2.0) 2.0 rng) cols in
    let at_star =
      List.fold_left2 (fun acc j c -> acc +. (c *. xstar.(j))) 0.0 cols coefs
    in
    let terms = List.map2 (fun j c -> (c, vars.(j))) cols coefs in
    match QCheck.Gen.int_bound 2 rng with
    | 0 ->
        Lp.Model.add_constr m terms Lp.Model.Le
          (at_star +. QCheck.Gen.float_bound_inclusive 3.0 rng)
    | 1 ->
        Lp.Model.add_constr m terms Lp.Model.Ge
          (at_star -. QCheck.Gen.float_bound_inclusive 3.0 rng)
    | _ -> Lp.Model.add_constr m terms Lp.Model.Eq at_star
  done;
  Lp.Model.compile m

let prop_differential_production =
  QCheck.Test.make ~count:6
    ~name:"dense and revised agree on production-size LPs"
    QCheck.(make (fun rng -> random_model_production rng))
    agree_on_feasible

(* ------------------------------------------------------------------ *)
(* MPS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mps_roundtrip_basic () =
  let p = model_basic () in
  let p' = Lp.Mps.of_string (Lp.Mps.to_string p) in
  Alcotest.(check int) "nv" p.Lp.Model.nv p'.Lp.Model.nv;
  Alcotest.(check int) "nr" p.Lp.Model.nr p'.Lp.Model.nr;
  let r = Lp.Revised.solve p and r' = Lp.Revised.solve p' in
  check_float "same optimum" r.Lp.Revised.objective r'.Lp.Revised.objective

let test_mps_integer_markers () =
  let m = Lp.Model.create () in
  let a = Lp.Model.add_var m ~ub:1.0 ~integer:true ~obj:(-10.0) "a" in
  let b = Lp.Model.add_var m ~obj:(-1.0) ~ub:3.5 "b" in
  Lp.Model.add_constr m [ (3.0, a); (1.0, b) ] Lp.Model.Le 5.0;
  let p = Lp.Model.compile m in
  let p' = Lp.Mps.of_string (Lp.Mps.to_string p) in
  Alcotest.(check bool) "a integer" true p'.Lp.Model.integer.(0);
  Alcotest.(check bool) "b continuous" false p'.Lp.Model.integer.(1);
  let r = Lp.Milp.solve p and r' = Lp.Milp.solve p' in
  check_float "same milp optimum" r.Lp.Milp.objective r'.Lp.Milp.objective;
  ignore (a, b)

let test_mps_parse_fixed_example () =
  (* hand-written instance: max x + y st x + 2y <= 4 (as min -x - y) *)
  let text =
    "* a comment line\n\
     NAME test\n\
     ROWS\n\
     \ N  COST\n\
     \ L  LIM\n\
     COLUMNS\n\
     \    X  COST  -1.0  LIM  1.0\n\
     \    Y  COST  -1.0  LIM  2.0\n\
     RHS\n\
     \    RHS1  LIM  4.0\n\
     BOUNDS\n\
     ENDATA\n"
  in
  let p = Lp.Mps.of_string text in
  Alcotest.(check int) "two vars" 2 p.Lp.Model.nv;
  Alcotest.(check int) "one row" 1 p.Lp.Model.nr;
  let r = Lp.Revised.solve p in
  check_float "optimum" (-4.0) r.Lp.Revised.objective

let test_mps_rejects_garbage () =
  (match Lp.Mps.of_string "ROWS\njunk\n" with
  | exception Lp.Mps.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error");
  match Lp.Mps.of_string "NAME x\nROWS\n N OBJ\nCOLUMNS\nRHS\nBOUNDS\n" with
  | exception Lp.Mps.Parse_error _ -> () (* missing ENDATA *)
  | _ -> Alcotest.fail "expected parse error for missing ENDATA"

let prop_mps_roundtrip =
  QCheck.Test.make ~count:150 ~name:"mps roundtrip preserves the optimum"
    QCheck.(make (fun rng -> random_model rng))
    (fun p ->
      let p' = Lp.Mps.of_string (Lp.Mps.to_string p) in
      let r = Lp.Revised.solve p and r' = Lp.Revised.solve p' in
      match (r.Lp.Revised.status, r'.Lp.Revised.status) with
      | Lp.Revised.Optimal, Lp.Revised.Optimal ->
          if
            Float.abs (r.Lp.Revised.objective -. r'.Lp.Revised.objective)
            > 1e-5 *. (1.0 +. Float.abs r.Lp.Revised.objective)
          then
            QCheck.Test.fail_reportf "objective drift: %g vs %g"
              r.Lp.Revised.objective r'.Lp.Revised.objective
          else true
      | a, b ->
          if a = b then true
          else
            QCheck.Test.fail_reportf "status mismatch %a vs %a"
              Lp.Revised.pp_status a Lp.Revised.pp_status b)

(* A structured LP shaped like the paper's event formulation, large enough
   to exercise refactorization. *)
(* v_0 .. v_n: event times; d_i in [1,3] chosen by a blend variable —
   the same time-chained shape as the event LPs, reused by the env-knob
   tests below because it runs enough pivots to hit the eta limit. *)
let chain_model n =
  let m = Lp.Model.create () in
  let v = Array.init (n + 1) (fun i -> Lp.Model.add_var m (Printf.sprintf "v%d" i)) in
  let blend = Array.init n (fun i -> Lp.Model.add_var m ~ub:1.0 (Printf.sprintf "c%d" i)) in
  Lp.Model.add_constr m [ (1.0, v.(0)) ] Lp.Model.Eq 0.0;
  for i = 0 to n - 1 do
    (* v_{i+1} - v_i >= 3 - 2 * blend_i  (blend buys speed) *)
    Lp.Model.add_constr m
      [ (1.0, v.(i + 1)); (-1.0, v.(i)); (2.0, blend.(i)) ]
      Lp.Model.Ge 3.0;
    ignore
      (Lp.Model.add_constr m [ (1.0, blend.(i)) ] Lp.Model.Le 1.0)
  done;
  (* power budget: sum of blends <= n/2 *)
  Lp.Model.add_constr m
    (Array.to_list (Array.map (fun b -> (1.0, b)) blend))
    Lp.Model.Le
    (Float.of_int n /. 2.0);
  Lp.Model.set_obj m v.(n) 1.0;
  Lp.Model.compile m

let test_revised_chain_large () =
  let n = 120 in
  let p = chain_model n in
  let r = Lp.Revised.solve p in
  Alcotest.(check bool) "optimal" true (r.Lp.Revised.status = Lp.Revised.Optimal);
  (* optimum: n/2 tasks at duration 1, n/2 at 3 -> makespan 2n *)
  check_float "objective" (2.0 *. Float.of_int n) r.Lp.Revised.objective

(* ------------------------------------------------------------------ *)
(* Hypersparse kernels and solver env knobs                            *)
(* ------------------------------------------------------------------ *)

let test_coo_zero_grows_dims () =
  let c = Lp.Sparse.Coo.create () in
  Lp.Sparse.Coo.add c 0 0 1.0;
  (* an explicit zero carries no storage but must still grow the shape *)
  Lp.Sparse.Coo.add c 4 6 0.0;
  let m = Lp.Sparse.Csc.of_coo c in
  Alcotest.(check int) "nrows" 5 m.Lp.Sparse.Csc.nrows;
  Alcotest.(check int) "ncols" 7 m.Lp.Sparse.Csc.ncols;
  Alcotest.(check int) "nnz" 1 (Lp.Sparse.Csc.nnz m)

(* The sparse triangular solves must agree with the dense kernels to the
   last bit: [Revised] mixes the two paths freely (per-call cutoffs and
   adaptive switching), so any divergence would break the determinism
   guarantee.  A fresh Forrest–Tomlin wrapper (zero updates) must replay
   {!Lp.Lu.solve}/{!Lp.Lu.solve_t}; repeated solves share one workspace
   to expose stale-stamp leaks between calls. *)
let lu_sparse_vs_dense m density seed =
  let rng = Random.State.make [| seed |] in
  let a = random_sparse_matrix rng m density in
  let col_iter k f =
    for i = 0 to m - 1 do
      if a.(i).(k) <> 0.0 then f i a.(i).(k)
    done
  in
  let lu = Lp.Lu.factor ~m col_iter in
  let ft = Lp.Lu.Ft.of_factor (Lp.Lu.Ft.make_wsp m) lu in
  let scratch = Array.make m 0.0 in
  let b = Array.make m 0.0 in
  let xs = Array.make m 0.0 and xind = Array.make m 0 in
  let xd = Array.make m 0.0 in
  let xs_n = ref (-1) in
  let seen = Array.make m false in
  for trial = 0 to 19 do
    (* sparse rhs with up to 3 distinct nonzero positions *)
    let bidx = Array.make 3 0 in
    let nb = ref 0 in
    for t = 0 to trial mod 3 do
      let i = ((trial * 13) + (t * 17)) mod m in
      if not seen.(i) then begin
        seen.(i) <- true;
        bidx.(!nb) <- i;
        incr nb;
        b.(i) <- 1.5 +. Float.of_int ((i + t) mod 4)
      end
    done;
    (* clear the previous solve's support, per the ftran_sp contract *)
    (match !xs_n with
    | -1 -> Array.fill xs 0 m 0.0
    | n ->
        for t = 0 to n - 1 do
          xs.(xind.(t)) <- 0.0
        done);
    let r =
      Lp.Lu.Ft.ftran_sp ft ~keep_spike:false ~nb:!nb ~bidx ~b ~x:xs ~xind
    in
    xs_n := r;
    Lp.Lu.solve lu ~b ~x:xd ~scratch;
    for k = 0 to m - 1 do
      if xs.(k) <> xd.(k) then
        Alcotest.failf "ftran_sp diverges at %d: %h vs %h (trial %d, r %d)"
          k xs.(k) xd.(k) trial r
    done;
    (* transpose solve through the same workspace *)
    let ys = Array.make m 0.0 and yind = Array.make m 0 in
    let yd = Array.make m 0.0 in
    let rt = Lp.Lu.Ft.btran_sp ft ~nc:!nb ~cidx:bidx ~c:b ~y:ys ~yind in
    Lp.Lu.solve_t lu ~c:b ~y:yd ~scratch;
    for k = 0 to m - 1 do
      if ys.(k) <> yd.(k) then
        Alcotest.failf "btran_sp diverges at %d: %h vs %h (trial %d, r %d)"
          k ys.(k) yd.(k) trial rt
    done;
    for t = 0 to !nb - 1 do
      seen.(bidx.(t)) <- false;
      b.(bidx.(t)) <- 0.0
    done
  done

let test_lu_sp_hypersparse () = lu_sparse_vs_dense 80 0.03 11
let test_lu_sp_mixed () = lu_sparse_vs_dense 60 0.1 7
let test_lu_sp_dense_fallback () = lu_sparse_vs_dense 30 0.6 5

(* Scoped env override: [restore] is the value put back afterwards when
   the variable was unset before (putenv cannot unset), chosen to match
   each knob's documented default. *)
let with_env kvs f =
  let saved =
    List.map (fun (k, _, restore) -> (k, Sys.getenv_opt k, restore)) kvs
  in
  List.iter (fun (k, v, _) -> Unix.putenv k v) kvs;
  Fun.protect f ~finally:(fun () ->
      List.iter
        (fun (k, old, restore) ->
          Unix.putenv k (Option.value old ~default:restore))
        saved)

(* Equilibration round-trip.  Two claims, at different strengths:

   (1) The scaling transformation itself is bitwise exact: factors are
   powers of two, so dividing every scaled coefficient / RHS back by
   its factors (and multiplying bounds) recovers the unscaled reduced
   problem bit for bit — the "scale-aware extraction" guarantee.  The
   reduction decisions themselves cannot differ, since scaling is
   applied after the presolve fixpoint.

   (2) The solved answers agree: scaling may legitimately change the
   pivot {e path} (magnitude-based pivot and ratio comparisons see
   different exponents), so the full re-solve is gated at an exact
   status match and 1e-9 relative on the objective, with the restored
   point feasible in the original units.  (On the event LP the paths
   coincide and CI byte-diffs enforce full output identity.) *)
let prop_scaling_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"power-of-two scaling round-trips exactly and preserves optima"
    QCheck.(make (fun rng -> random_feasible_model rng))
    (fun p ->
      let reduce_scale v =
        with_env [ ("POWERLIM_SCALE", v, "") ] (fun () -> Lp.Presolve.reduce p)
      in
      (match (reduce_scale "1", reduce_scale "0") with
      | Lp.Presolve.Reduced a, Lp.Presolve.Reduced b ->
          if
            a.Lp.Presolve.keep_vars <> b.Lp.Presolve.keep_vars
            || a.Lp.Presolve.kept_rows <> b.Lp.Presolve.kept_rows
          then QCheck.Test.fail_report "scaling changed reduction decisions";
          let pa = a.Lp.Presolve.problem and pb = b.Lp.Presolve.problem in
          let rs = a.Lp.Presolve.row_scale and cs = a.Lp.Presolve.col_scale in
          let ca = pa.Lp.Model.a and cb = pb.Lp.Model.a in
          for j = 0 to pa.Lp.Model.nv - 1 do
            for k = ca.Lp.Sparse.Csc.colptr.(j)
                to ca.Lp.Sparse.Csc.colptr.(j + 1) - 1 do
              let i = ca.Lp.Sparse.Csc.rowind.(k) in
              let back =
                ca.Lp.Sparse.Csc.values.(k) /. (rs.(i) *. cs.(j))
              in
              if back <> cb.Lp.Sparse.Csc.values.(k) then
                QCheck.Test.fail_reportf
                  "matrix entry (%d,%d) does not round-trip: %h vs %h" i j
                  back cb.Lp.Sparse.Csc.values.(k)
            done;
            let lb = pa.Lp.Model.lb.(j) *. cs.(j)
            and ub = pa.Lp.Model.ub.(j) *. cs.(j)
            and ob = pa.Lp.Model.obj.(j) /. cs.(j) in
            if
              lb <> pb.Lp.Model.lb.(j)
              || ub <> pb.Lp.Model.ub.(j)
              || ob <> pb.Lp.Model.obj.(j)
            then
              QCheck.Test.fail_reportf "column %d data does not round-trip" j
          done;
          for i = 0 to pa.Lp.Model.nr - 1 do
            if pa.Lp.Model.row_rhs.(i) /. rs.(i) <> pb.Lp.Model.row_rhs.(i)
            then QCheck.Test.fail_reportf "rhs %d does not round-trip" i
          done
      | Lp.Presolve.Proven_infeasible, Lp.Presolve.Proven_infeasible -> ()
      | _ -> QCheck.Test.fail_report "scaling changed the reduce outcome");
      let solve_scale v =
        with_env [ ("POWERLIM_SCALE", v, "") ] (fun () -> Lp.Presolve.solve p)
      in
      let r_on = solve_scale "1" in
      let r_off = solve_scale "0" in
      if r_on.Lp.Revised.status <> r_off.Lp.Revised.status then
        QCheck.Test.fail_reportf "status mismatch: %a vs %a"
          Lp.Revised.pp_status r_on.Lp.Revised.status Lp.Revised.pp_status
          r_off.Lp.Revised.status
      else begin
        (match r_on.Lp.Revised.status with
        | Lp.Revised.Optimal ->
            let d =
              Float.abs (r_on.Lp.Revised.objective -. r_off.Lp.Revised.objective)
              /. (1.0 +. Float.abs r_off.Lp.Revised.objective)
            in
            if d > 1e-9 then
              QCheck.Test.fail_reportf "objectives differ by %g: %h vs %h" d
                r_on.Lp.Revised.objective r_off.Lp.Revised.objective;
            if not (Lp.Model.feasible ~tol:1e-6 p r_on.Lp.Revised.x) then
              QCheck.Test.fail_report
                "restored scaled solution infeasible in original units"
        | _ -> ());
        true
      end)

(* ------------------------------------------------------------------ *)
(* Structural edits (Lp.Edit)                                          *)
(* ------------------------------------------------------------------ *)

(* min -x - 2y, x,y in [0,4], x + y <= 5, y <= 2.5: unique optimum at
   (2.5, 2.5), objective -7.5. *)
let edit_base_model () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~lb:0.0 ~ub:4.0 ~obj:(-1.0) "x" in
  let y = Lp.Model.add_var m ~lb:0.0 ~ub:4.0 ~obj:(-2.0) "y" in
  Lp.Model.add_constr m ~name:"sum" [ (1.0, x); (1.0, y) ] Lp.Model.Le 5.0;
  Lp.Model.add_constr m ~name:"ycap" [ (1.0, y) ] Lp.Model.Le 2.5;
  Lp.Model.compile m

let test_edit_apply_shapes () =
  let p = edit_base_model () in
  (* grow by a column and a row, then shrink both away again *)
  let grown =
    Lp.Edit.apply p
      [
        Lp.Edit.Add_col
          { name = "z"; lb = 0.0; ub = 1.0; obj = -3.0; terms = [ (1.0, 0) ] };
        Lp.Edit.Add_row
          { name = "zcap"; terms = [ (1.0, 2) ]; sense = Lp.Model.Le; rhs = 0.5 };
      ]
  in
  Alcotest.(check (pair int int)) "grown shape" (3, 3)
    (grown.Lp.Model.nv, grown.Lp.Model.nr);
  Alcotest.(check string) "new column named" "z" grown.Lp.Model.var_names.(2);
  Alcotest.(check string) "new row named" "zcap" grown.Lp.Model.row_names.(2);
  let r = Lp.Revised.solve grown in
  (* z = 0.5 displaces 0.5 of x inside the sum row: -7.5 - 3*0.5 + 0.5 *)
  check_float "grown objective" (-8.5) r.Lp.Revised.objective;
  let shrunk = Lp.Edit.apply grown [ Lp.Edit.Remove_row 2; Lp.Edit.Remove_col 2 ] in
  Alcotest.(check (pair int int)) "shrunk shape" (2, 2)
    (shrunk.Lp.Model.nv, shrunk.Lp.Model.nr);
  Alcotest.(check string) "row names compact" "ycap" shrunk.Lp.Model.row_names.(1);
  check_float "shrunk objective restored" (-7.5)
    (Lp.Revised.solve shrunk).Lp.Revised.objective;
  (* coefficient surgery *)
  let patched =
    Lp.Edit.apply p
      [
        Lp.Edit.Set_rhs { row = 0; rhs = 4.5 };
        Lp.Edit.Set_obj { col = 0; obj = -4.0 };
        Lp.Edit.Set_bounds { col = 1; lb = 0.0; ub = 2.0 };
      ]
  in
  (* x dominates: x = 4 (its bound), y = 0.5 fills the sum row *)
  check_float "patched objective" (-17.0)
    (Lp.Revised.solve patched).Lp.Revised.objective;
  (* Set_entry 0 deletes the entry: y leaves the sum row *)
  let deleted =
    Lp.Edit.apply p [ Lp.Edit.Set_entry { row = 0; col = 1; coef = 0.0 } ]
  in
  Alcotest.(check int) "entry deleted" (Lp.Sparse.Csc.nnz p.Lp.Model.a - 1)
    (Lp.Sparse.Csc.nnz deleted.Lp.Model.a);
  check_float "deleted-entry objective" (-9.0)
    (Lp.Revised.solve deleted).Lp.Revised.objective

let test_edit_validation () =
  let p = edit_base_model () in
  let raises what edits =
    match Lp.Edit.apply p edits with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "row out of range" [ Lp.Edit.Remove_row 2 ];
  raises "col out of range" [ Lp.Edit.Set_obj { col = 7; obj = 0.0 } ];
  raises "crossed bounds"
    [ Lp.Edit.Set_bounds { col = 0; lb = 1.0; ub = 0.0 } ];
  raises "NaN coefficient"
    [ Lp.Edit.Set_entry { row = 0; col = 0; coef = Float.nan } ];
  raises "stale index after removal"
    [ Lp.Edit.Remove_row 1; Lp.Edit.Set_rhs { row = 1; rhs = 0.0 } ]

let test_edit_maps () =
  let p = edit_base_model () in
  let edits =
    [
      Lp.Edit.Add_col
        { name = "z"; lb = 0.0; ub = 1.0; obj = 0.0; terms = [] };
      Lp.Edit.Remove_col 0;
      Lp.Edit.Remove_row 0;
      Lp.Edit.Add_row
        { name = "r"; terms = [ (1.0, 0) ]; sense = Lp.Model.Ge; rhs = 0.0 };
    ]
  in
  Alcotest.(check (array int)) "col map" [| -1; 0 |] (Lp.Edit.col_map p edits);
  Alcotest.(check (array int)) "row map" [| -1; 0 |] (Lp.Edit.row_map p edits);
  (* surviving names travel with their indices *)
  let pe = Lp.Edit.apply p edits in
  Alcotest.(check string) "surviving col" "y" pe.Lp.Model.var_names.(0);
  Alcotest.(check string) "surviving row" "ycap" pe.Lp.Model.row_names.(0)

(* Single-edit warm re-solves must reproduce the cold objective to the
   bit — the canonical basis extraction in [Revised] makes warm and cold
   runs that terminate at the same (unique) optimal basis literally
   indistinguishable.  This is the unit-scale version of the editbench
   CI gate. *)
let test_edit_warm_bit_identical () =
  let p = edit_base_model () in
  let r0 = Lp.Revised.solve p in
  let b = Option.get r0.Lp.Revised.basis in
  List.iter
    (fun (what, edits) ->
      let pe, rw = Lp.Edit.resolve ~warm:b p edits in
      let rc = Lp.Revised.solve pe in
      Alcotest.(check bool) (what ^ ": both optimal") true
        (rw.Lp.Revised.status = Lp.Revised.Optimal
        && rc.Lp.Revised.status = Lp.Revised.Optimal);
      Alcotest.(check bool) (what ^ ": bit-identical objective") true
        (Int64.equal
           (Int64.bits_of_float rw.Lp.Revised.objective)
           (Int64.bits_of_float rc.Lp.Revised.objective)))
    [
      ("rhs", [ Lp.Edit.Set_rhs { row = 0; rhs = 4.5 } ]);
      ("bounds", [ Lp.Edit.Set_bounds { col = 0; lb = 0.0; ub = 3.0 } ]);
      ("entry", [ Lp.Edit.Set_entry { row = 0; col = 0; coef = 2.0 } ]);
      ( "added row",
        [
          Lp.Edit.Add_row
            {
              name = "cut";
              terms = [ (1.0, 0); (2.0, 1) ];
              sense = Lp.Model.Le;
              rhs = 6.0;
            };
        ] );
      ( "added col",
        [
          Lp.Edit.Add_col
            { name = "z"; lb = 0.0; ub = 1.0; obj = -3.0; terms = [ (1.0, 0) ] };
        ] );
      ("removed row", [ Lp.Edit.Remove_row 1 ]);
      ("removed col", [ Lp.Edit.Remove_col 0 ]);
    ]

(* The shrinking-friendly edit generator: edits are drawn as abstract
   specs (constructor choice + raw ints/floats) and interpreted against
   the evolving problem with index clamping, so ANY sublist of a failing
   spec list is still a valid edit sequence — QCheck's stock list
   shrinker applies directly, no custom invariant-preserving shrinker
   needed. *)
type edit_spec = { kind : int; ia : int; ib : int; fa : float; fb : float }

let gen_edit_spec rng =
  {
    kind = QCheck.Gen.int_bound 7 rng;
    ia = QCheck.Gen.int_bound 1000 rng;
    ib = QCheck.Gen.int_bound 1000 rng;
    fa = QCheck.Gen.float_range (-4.0) 4.0 rng;
    fb = QCheck.Gen.float_range (-4.0) 4.0 rng;
  }

let interp_spec (p : Lp.Model.problem) s : Lp.Edit.t option =
  let nv = p.Lp.Model.nv and nr = p.Lp.Model.nr in
  let col = if nv = 0 then None else Some (s.ia mod nv) in
  let row = if nr = 0 then None else Some (s.ib mod nr) in
  match s.kind with
  | 0 ->
      let terms = match col with None -> [] | Some j -> [ (s.fa, j) ] in
      let sense =
        match s.ia mod 3 with
        | 0 -> Lp.Model.Le
        | 1 -> Lp.Model.Ge
        | _ -> Lp.Model.Eq
      in
      Some (Lp.Edit.Add_row { name = "erow"; terms; sense; rhs = s.fb })
  | 1 -> Option.map (fun r -> Lp.Edit.Remove_row r) row
  | 2 ->
      let terms = match row with None -> [] | Some i -> [ (s.fb, i) ] in
      let ub =
        if s.ib land 1 = 0 then Float.infinity else Float.abs s.fb +. 1.0
      in
      Some (Lp.Edit.Add_col { name = "ecol"; lb = 0.0; ub; obj = s.fa; terms })
  | 3 -> if nv <= 1 then None else Option.map (fun j -> Lp.Edit.Remove_col j) col
  | 4 ->
      Option.map
        (fun j ->
          let lb = Float.min s.fa s.fb in
          let ub =
            if s.ia land 1 = 0 then Float.infinity else Float.max s.fa s.fb
          in
          Lp.Edit.Set_bounds { col = j; lb; ub })
        col
  | 5 -> Option.map (fun j -> Lp.Edit.Set_obj { col = j; obj = s.fa }) col
  | 6 -> (
      match (row, col) with
      | Some r, Some c -> Some (Lp.Edit.Set_entry { row = r; col = c; coef = s.fa })
      | _ -> None)
  | _ -> Option.map (fun r -> Lp.Edit.Set_rhs { row = r; rhs = s.fb }) row

let interp_specs p specs =
  let rec go p acc = function
    | [] -> List.rev acc
    | s :: tl -> (
        match interp_spec p s with
        | None -> go p acc tl
        | Some e -> go (Lp.Edit.apply p [ e ]) (e :: acc) tl)
  in
  go p [] specs

let edit_case_arbitrary =
  let print (p, specs) =
    Fmt.str "%d vars x %d rows; edits: [%a]" p.Lp.Model.nv p.Lp.Model.nr
      (Fmt.list ~sep:Fmt.semi Lp.Edit.pp)
      (interp_specs p specs)
  in
  QCheck.make ~print
    ~shrink:QCheck.Shrink.(pair nil (list ~shrink:nil))
    QCheck.Gen.(
      fun rng ->
        let p = random_feasible_model rng in
        let n = int_range 1 5 rng in
        (p, list_size (return n) gen_edit_spec rng))

(* The differential edit oracle: an incremental re-solve (basis mapped
   across the structural edits, dual-repaired) must agree with a cold
   solve of the edited problem on status — including edits that flip the
   problem infeasible or unbounded — and on the objective to 1e-9. *)
let prop_edit_oracle =
  QCheck.Test.make ~count:300
    ~name:"incremental edit re-solve matches cold (status + 1e-9)"
    edit_case_arbitrary
    (fun (p, specs) ->
      let edits = interp_specs p specs in
      let r0 = Lp.Revised.solve p in
      let pe, rw =
        match (r0.Lp.Revised.status, r0.Lp.Revised.basis) with
        | Lp.Revised.Optimal, Some b -> Lp.Edit.resolve ~warm:b p edits
        | _ -> Lp.Edit.resolve p edits
      in
      let rc = Lp.Revised.solve pe in
      if rc.Lp.Revised.status <> rw.Lp.Revised.status then
        QCheck.Test.fail_reportf "status mismatch: cold %a incremental %a"
          Lp.Revised.pp_status rc.Lp.Revised.status Lp.Revised.pp_status
          rw.Lp.Revised.status
      else
        match rc.Lp.Revised.status with
        | Lp.Revised.Optimal ->
            if
              Float.abs (rc.Lp.Revised.objective -. rw.Lp.Revised.objective)
              > 1e-9 *. (1.0 +. Float.abs rc.Lp.Revised.objective)
            then
              QCheck.Test.fail_reportf
                "objectives differ: cold %.12g incremental %.12g"
                rc.Lp.Revised.objective rw.Lp.Revised.objective
            else if not (Lp.Model.feasible ~tol:1e-6 pe rw.Lp.Revised.x) then
              QCheck.Test.fail_report "incremental solution infeasible"
            else true
        | _ -> true)

(* Index maps are consistent with apply: every surviving row/column
   keeps its name at its mapped index. *)
let prop_edit_maps_names =
  QCheck.Test.make ~count:200 ~name:"edit maps track surviving names"
    edit_case_arbitrary
    (fun (p, specs) ->
      let edits = interp_specs p specs in
      let pe = Lp.Edit.apply p edits in
      let cmap = Lp.Edit.col_map p edits in
      let rmap = Lp.Edit.row_map p edits in
      let ok = ref true in
      Array.iteri
        (fun j c ->
          if
            c >= 0
            && not
                 (String.equal p.Lp.Model.var_names.(j)
                    pe.Lp.Model.var_names.(c))
          then ok := false)
        cmap;
      Array.iteri
        (fun i r ->
          if
            r >= 0
            && not
                 (String.equal p.Lp.Model.row_names.(i)
                    pe.Lp.Model.row_names.(r))
          then ok := false)
        rmap;
      !ok)

(* Value edits of the matrix: a run of [Set_entry] edits must build,
   bit for bit, the matrix that the edited entry set gives when frozen
   through [Csc.of_coo] — whether the run only rewrites stored entries
   (patched in place, structure shared) or adds, deletes or zeroes some
   (merged). *)
let entry_case_arbitrary =
  let gen rng =
    let open QCheck.Gen in
    let nr = 1 + int_bound 7 rng and nv = 1 + int_bound 7 rng in
    (* a small value set makes duplicate coordinates cancel now and then,
       which [of_coo] drops *)
    let value rng =
      if bool rng then oneofl [ -2.0; -1.0; -0.5; 0.5; 1.0; 2.0 ] rng
      else float_range (-4.0) 4.0 rng
    in
    let coo = Lp.Sparse.Coo.create () in
    for _ = 1 to int_bound (2 * nr * nv) rng do
      Lp.Sparse.Coo.add coo (int_bound (nr - 1) rng) (int_bound (nv - 1) rng)
        (value rng)
    done;
    let a = Lp.Sparse.Csc.of_coo ~nrows:nr ~ncols:nv coo in
    let stored = ref [] in
    for j = 0 to nv - 1 do
      Lp.Sparse.Csc.iter_col a j (fun i _ -> stored := (i, j) :: !stored)
    done;
    let stored = Array.of_list !stored in
    let nonzero rng =
      let v = 0.25 +. float_bound_inclusive 3.0 rng in
      if bool rng then v else -.v
    in
    let rewrite rng =
      let i, j = stored.(int_bound (Array.length stored - 1) rng) in
      (i, j, nonzero rng)
    in
    let anywhere rng = (int_bound (nr - 1) rng, int_bound (nv - 1) rng) in
    let any rng =
      match int_bound 3 rng with
      | 0 when Array.length stored > 0 -> rewrite rng
      | 1 when Array.length stored > 0 ->
          let i, j = stored.(int_bound (Array.length stored - 1) rng) in
          (i, j, 0.0)
      | 2 ->
          let i, j = anywhere rng in
          (i, j, -0.0)
      | _ ->
          let i, j = anywhere rng in
          (i, j, nonzero rng)
    in
    let n = 1 + int_bound 5 rng in
    let rewrites_only = Array.length stored > 0 && bool rng in
    let edits =
      List.init n (fun _ -> if rewrites_only then rewrite rng else any rng)
    in
    (a, rewrites_only, edits)
  in
  let print (a, _, edits) =
    Fmt.str "%dx%d, entries [%a]; edits [%a]" a.Lp.Sparse.Csc.nrows
      a.Lp.Sparse.Csc.ncols
      Fmt.(list ~sep:semi (fun ppf (i, v) -> pf ppf "%d:%h" i v))
      (Array.to_list
         (Array.map2 (fun i v -> (i, v)) a.Lp.Sparse.Csc.rowind
            a.Lp.Sparse.Csc.values))
      Fmt.(list ~sep:semi (fun ppf (i, j, v) -> pf ppf "(%d,%d)=%h" i j v))
      edits
  in
  QCheck.make ~print gen

let prop_set_entries_as_rebuilt =
  QCheck.Test.make ~count:500
    ~name:"set-entry runs build the rebuilt matrix bit for bit"
    entry_case_arbitrary
    (fun (a, rewrites_only, edits) ->
      let nr = a.Lp.Sparse.Csc.nrows and nv = a.Lp.Sparse.Csc.ncols in
      let p =
        {
          Lp.Model.nv;
          nr;
          a;
          lb = Array.make nv 0.0;
          ub = Array.make nv Float.infinity;
          obj = Array.make nv 0.0;
          row_sense = Array.make nr Lp.Model.Le;
          row_rhs = Array.make nr 0.0;
          integer = Array.make nv false;
          var_names = Array.init nv (Printf.sprintf "x%d");
          row_names = Array.init nr (Printf.sprintf "r%d");
        }
      in
      let got =
        (Lp.Edit.apply p
           (List.map
              (fun (row, col, coef) -> Lp.Edit.Set_entry { row; col; coef })
              edits))
          .Lp.Model.a
      in
      let entries = Hashtbl.create 16 in
      for j = 0 to nv - 1 do
        Lp.Sparse.Csc.iter_col a j (fun i v -> Hashtbl.replace entries (i, j) v)
      done;
      List.iter (fun (i, j, v) -> Hashtbl.replace entries (i, j) v) edits;
      let coo = Lp.Sparse.Coo.create () in
      Hashtbl.iter (fun (i, j) v -> Lp.Sparse.Coo.add coo i j v) entries;
      let want = Lp.Sparse.Csc.of_coo ~nrows:nr ~ncols:nv coo in
      let bits v = Array.map Int64.bits_of_float v in
      if got.Lp.Sparse.Csc.colptr <> want.Lp.Sparse.Csc.colptr then
        QCheck.Test.fail_report "colptr differs"
      else if got.Lp.Sparse.Csc.rowind <> want.Lp.Sparse.Csc.rowind then
        QCheck.Test.fail_report "rowind differs"
      else if bits got.Lp.Sparse.Csc.values <> bits want.Lp.Sparse.Csc.values
      then QCheck.Test.fail_report "values differ"
      else if rewrites_only && got.Lp.Sparse.Csc.rowind != a.Lp.Sparse.Csc.rowind
      then QCheck.Test.fail_report "a rewrite-only run rebuilt the structure"
      else true)

let suite =
  [
    ( "lp.sparse",
      [
        Alcotest.test_case "coo to csc" `Quick test_coo_to_csc;
        Alcotest.test_case "csc mult" `Quick test_csc_mult;
        Alcotest.test_case "explicit zero grows dims" `Quick
          test_coo_zero_grows_dims;
      ] );
    ( "lp.lu",
      [
        Alcotest.test_case "roundtrip small" `Quick test_lu_small;
        Alcotest.test_case "roundtrip medium" `Quick test_lu_medium;
        Alcotest.test_case "roundtrip dense" `Quick test_lu_dense;
        Alcotest.test_case "identity" `Quick test_lu_identity;
        Alcotest.test_case "exact cancellation" `Quick test_lu_exact_cancellation;
        Alcotest.test_case "permutation" `Quick test_lu_permutation;
        Alcotest.test_case "singular replaced" `Quick test_lu_singular_replaced;
        Alcotest.test_case "sparse solves bitwise (hypersparse)" `Quick
          test_lu_sp_hypersparse;
        Alcotest.test_case "sparse solves bitwise (mixed)" `Quick
          test_lu_sp_mixed;
        Alcotest.test_case "sparse solves bitwise (dense fallback)" `Quick
          test_lu_sp_dense_fallback;
        Alcotest.test_case "ft updates small" `Quick test_ft_small;
        Alcotest.test_case "ft updates medium" `Quick test_ft_medium;
        Alcotest.test_case "ft updates dense" `Quick test_ft_dense;
        Alcotest.test_case "ft updates long sequence" `Quick test_ft_many;
        Alcotest.test_case "ft kernels check their arguments" `Quick
          test_ft_entry_checks;
      ] );
    ( "lp.model",
      [ Alcotest.test_case "compile and feasible" `Quick test_model_compile ] );
    ( "lp.simplex",
      [
        Alcotest.test_case "dense basic" `Quick test_dense_basic;
        Alcotest.test_case "revised basic" `Quick test_revised_basic;
        Alcotest.test_case "dense eq/ge" `Quick test_dense_eq_ge;
        Alcotest.test_case "revised eq/ge" `Quick test_revised_eq_ge;
        Alcotest.test_case "infeasible" `Quick test_infeasible;
        Alcotest.test_case "unbounded" `Quick test_unbounded;
        Alcotest.test_case "slack start proves infeasibility" `Quick
          test_slack_start_infeasible;
        Alcotest.test_case "one priced column takes phase 1" `Quick
          test_one_priced_column_takes_phase1;
        Alcotest.test_case "free variable" `Quick test_free_variable;
        Alcotest.test_case "negative bounds" `Quick test_negative_bounds;
        Alcotest.test_case "degenerate" `Quick test_degenerate;
        Alcotest.test_case "beale cycling" `Quick test_beale_cycling_example;
        Alcotest.test_case "large chain" `Quick test_revised_chain_large;
        Alcotest.test_case "entry checks" `Quick test_revised_entry_checks;
        QCheck_alcotest.to_alcotest prop_differential;
        QCheck_alcotest.to_alcotest prop_differential_feasible;
        QCheck_alcotest.to_alcotest prop_differential_large;
        QCheck_alcotest.to_alcotest prop_duality;
        QCheck_alcotest.to_alcotest prop_differential_production;
      ] );
    ( "lp.mps",
      [
        Alcotest.test_case "roundtrip basic" `Quick test_mps_roundtrip_basic;
        Alcotest.test_case "integer markers" `Quick test_mps_integer_markers;
        Alcotest.test_case "fixed example" `Quick test_mps_parse_fixed_example;
        Alcotest.test_case "rejects garbage" `Quick test_mps_rejects_garbage;
        QCheck_alcotest.to_alcotest prop_mps_roundtrip;
      ] );
    ( "lp.presolve",
      [
        Alcotest.test_case "fixed vars" `Quick test_presolve_fixed_vars;
        Alcotest.test_case "singleton row" `Quick test_presolve_singleton_row;
        Alcotest.test_case "infeasible" `Quick test_presolve_detects_infeasible;
        Alcotest.test_case "doubleton chain" `Quick test_presolve_doubleton_chain;
        Alcotest.test_case "doubleton bounds" `Quick test_presolve_doubleton_bound_transfer;
        Alcotest.test_case "cancelled column fixed" `Quick test_presolve_cancellation;
        Alcotest.test_case "singleton death empties column" `Quick
          test_presolve_singleton_death;
        Alcotest.test_case "counters" `Quick test_presolve_counters;
        QCheck_alcotest.to_alcotest prop_presolve_equivalent;
        QCheck_alcotest.to_alcotest prop_presolve_sparse;
        QCheck_alcotest.to_alcotest prop_scaling_roundtrip;
      ] );
    ( "lp.milp",
      [
        Alcotest.test_case "knapsack" `Quick test_milp_knapsack;
        Alcotest.test_case "relaxation bound" `Quick test_milp_relaxation_bound;
        Alcotest.test_case "general integers" `Quick test_milp_integer_general;
        Alcotest.test_case "infeasible" `Quick test_milp_infeasible;
        Alcotest.test_case "node limit with incumbent" `Quick
          test_milp_node_limit_with_incumbent;
        Alcotest.test_case "node budget boundary" `Quick
          test_milp_node_budget_boundary;
        Alcotest.test_case "root iteration limit" `Quick
          test_milp_root_iter_limit;
        Alcotest.test_case "child iteration limit" `Quick
          test_milp_child_iter_limit;
        QCheck_alcotest.to_alcotest prop_milp_vs_bruteforce;
        QCheck_alcotest.to_alcotest prop_milp_warm_equals_cold;
      ] );
    ( "lp.warm",
      [
        Alcotest.test_case "rhs re-solve" `Quick test_warm_rhs_resolve;
        QCheck_alcotest.to_alcotest prop_warm_resolve;
        QCheck_alcotest.to_alcotest prop_dual_select_oracle;
      ] );
    ( "lp.edit",
      [
        Alcotest.test_case "apply shapes and objectives" `Quick
          test_edit_apply_shapes;
        Alcotest.test_case "validation" `Quick test_edit_validation;
        Alcotest.test_case "index maps" `Quick test_edit_maps;
        Alcotest.test_case "warm bit-identical to cold" `Quick
          test_edit_warm_bit_identical;
        QCheck_alcotest.to_alcotest prop_edit_oracle;
        QCheck_alcotest.to_alcotest prop_edit_maps_names;
        QCheck_alcotest.to_alcotest prop_set_entries_as_rebuilt;
      ] );
  ]
