(** Bounded-variable revised simplex with sparse basis factorization.

    Standard computational form: every row gets a slack variable
    ([a.x + s = b] with slack bounds encoding the row sense), so the
    constraint matrix is [[A | I]].  A cold solve starts from the
    all-slack basis.  When that basis is dual feasible as it stands and
    the objective prices most structural columns ([slack_start_fits]),
    the dual simplex loop below runs from it directly.  Otherwise, where
    the all-slack point is out of bounds, artificial variables restore
    feasibility and a phase-1 objective (minimize the sum of
    artificials) is solved before phase 2.

    The basis is factorized with {!Lu} and updated between
    refactorizations with Forrest–Tomlin row etas ({!Lu.Ft}); FTRAN and
    BTRAN of sparse right-hand sides run the hypersparse kernels, with an
    adaptive fallback to the dense ones.  Pricing is Dantzig's rule over a
    rotating partial-pricing window, with an automatic switch to Bland's
    rule after a run of degenerate pivots; the ratio test is a two-pass
    Harris test.  Every LP, whatever its size, runs these kernels; only
    the starting basis depends on the LP.

    Warm starts: [solve] returns the final basis (basic set + nonbasic
    statuses) and accepts it back via [?warm] on a later call whose
    bounds/RHS differ.  The warm basis is repaired against the new bounds
    and, because bound/RHS changes preserve dual feasibility, re-solved
    with a {e dual simplex} loop (largest-violation row choice, dual
    ratio test with bound flips).  Any irreparable situation — basis
    singular beyond {!Lu} repair, dual-infeasible nonbasic that cannot be
    flipped — falls back to a cold solve, so a warm call can never be
    less robust than a cold one.  A slack start that fails the same way
    falls back once to phase 1/2.

    Pricing allocates nothing per column: the column dot products are
    inlined and every float stays unboxed.  The dual ratio test orders
    its candidates in a heap over parallel arrays instead of sorting
    them.  Each layer's wall time is summed in a local float array and
    flushed to {!Stats} once per solve.

    The pricing scans, both Harris passes and the dual's row scan,
    pivot-row gather, candidate build and reduced-cost updates index
    without bounds checks ({!Unchecked}): their indices are columns
    below the solver's own cap-sized arrays, basis positions below [nr]
    and entries of a constraint matrix whose structure [solve] checks on
    entry, with the caller's bound and RHS vectors and analysis. *)

open Unchecked

type status = Optimal | Infeasible | Unbounded | Iter_limit

let pp_status ppf = function
  | Optimal -> Fmt.string ppf "optimal"
  | Infeasible -> Fmt.string ppf "infeasible"
  | Unbounded -> Fmt.string ppf "unbounded"
  | Iter_limit -> Fmt.string ppf "iteration-limit"

type basis = {
  basic : int array;
      (** column of each basis position, length [nr]; structural columns
          are [0..nv-1], slacks [nv..nv+nr-1] *)
  vstat : char array;
      (** per-column status, length [nv+nr]: ['b'] basic, ['l']/['u'] at
          lower/upper bound, ['f'] free at zero *)
}

type result = {
  status : status;
  objective : float;
  x : float array;  (** structural primal values, length [nv] *)
  y : float array;  (** row duals, length [nr] *)
  dj : float array;  (** structural reduced costs, length [nv] *)
  iterations : int;
  basis : basis option;
      (** final simplex basis, reusable as [?warm] on a re-solve of the
          same problem shape; [None] when no clean slack/structural basis
          exists (e.g. constraint-free models) *)
}

let neg_inf = Float.neg_infinity
let inf = Float.infinity

exception Fallback
exception Invariant_broken of string

(* Refactorization triggers.  The fill ratio — (L + dynamic U + row
   etas) / nonzeros at factorization, 1.0 when fresh — is the primary
   one; the update-count cap bounds numerical drift on fill-free update
   chains. *)
let refactor_fill_limit = 2.0
let ft_update_cap = 256

type analysis = { arows : Sparse.Csc.rows; nrows : int; ncols : int }
(** Symbolic analysis of a problem's constraint matrix, reusable across
    solves that change only bounds/RHS (cap sweeps, branch-and-bound
    children).  Immutable after construction, so one value may be shared
    freely across pool domains.  The shape it was built for is kept so
    that a solve can refuse an analysis of another matrix. *)

let make_analysis (p : Model.problem) =
  {
    arows = Sparse.Csc.rows p.a;
    nrows = Sparse.Csc.nrows p.a;
    ncols = Sparse.Csc.ncols p.a;
  }

(* What the unchecked scans index through, checked once per solve: the
   bound and RHS vectors' lengths, the constraint matrix's structure
   (an [nr] x [nv] matrix whose column pointers rise from 0 to its entry
   count and whose row indices are below [nr]), and an analysis of that
   shape. *)
let check_inputs ~lb ~ub ~rhs ?analysis (p : Model.problem) =
  let bad fmt =
    Printf.ksprintf (fun s -> invalid_arg ("Revised.solve: " ^ s)) fmt
  in
  let nv = p.nv and nr = p.nr in
  let len what (v : float array) n =
    if Array.length v <> n then
      bad "%s has length %d, expected %d" what (Array.length v) n
  in
  len "lb" lb nv;
  len "ub" ub nv;
  len "rhs" rhs nr;
  let a = p.a in
  if Sparse.Csc.nrows a <> nr || Sparse.Csc.ncols a <> nv then
    bad "matrix is %dx%d, problem %dx%d" (Sparse.Csc.nrows a)
      (Sparse.Csc.ncols a) nr nv;
  let cp = a.colptr and nnz = Array.length a.rowind in
  if Array.length cp <> nv + 1 then
    bad "colptr has length %d, expected %d" (Array.length cp) (nv + 1);
  if Array.length a.values <> nnz then
    bad "%d values for %d row indices" (Array.length a.values) nnz;
  if cp.(0) <> 0 || cp.(nv) <> nnz then
    bad "colptr runs from %d to %d, not from 0 to %d" cp.(0) cp.(nv) nnz;
  for j = 0 to nv - 1 do
    if cp.(j + 1) < cp.(j) then bad "colptr decreases after column %d" j
  done;
  for k = 0 to nnz - 1 do
    let i = a.rowind.(k) in
    if i < 0 || i >= nr then bad "row index %d outside [0, %d)" i nr
  done;
  match analysis with
  | Some an
    when an.nrows <> nr || an.ncols <> nv
         || Array.length an.arows.Sparse.Csc.colind <> nnz ->
      bad "analysis of a %dx%d matrix with %d entries, not %dx%d with %d"
        an.nrows an.ncols
        (Array.length an.arows.Sparse.Csc.colind)
        nr nv nnz
  | _ -> ()

(* --- columns of the working matrix [A | I | artificials] --------------
   Structural column [j < nv] is [a]'s, slack [nv + i] is the unit column
   of row [i], artificial [nv + m + k] is [art_sig.(k)] in row
   [art_row.(k)].  The helpers are inlined into every scan, so the float
   they compute never leaves a register. *)
type cols = {
  a : Sparse.Csc.t;
  nv : int;
  m : int;
  art_row : int array;
  art_sig : float array;
}

(* [a_j . y], summed in the Csc entry order {!Sparse.Csc.dot_col} uses.
   Unchecked: [j] is a column below [nv + m + nart], the checked matrix
   keeps [k] below its entry count and row indices below [m], [y] is m
   long, and [art_row] holds rows for every artificial in use. *)
let[@inline] col_dot c j (y : float array) =
  if j < c.nv then begin
    let s = ref 0.0 in
    for k = c.a.colptr.!(j) to c.a.colptr.!(j + 1) - 1 do
      s := !s +. (c.a.values.!(k) *. y.!(c.a.rowind.!(k)))
    done;
    !s
  end
  else if j < c.nv + c.m then y.!(j - c.nv)
  else c.art_sig.!(j - c.nv - c.m) *. y.!(c.art_row.!(j - c.nv - c.m))

(* [b <- b - v a_j], entry by entry in Csc order. *)
let[@inline] col_sub c j v (b : float array) =
  if j < c.nv then
    for k = c.a.colptr.(j) to c.a.colptr.(j + 1) - 1 do
      let i = c.a.rowind.(k) in
      b.(i) <- b.(i) -. (c.a.values.(k) *. v)
    done
  else if j < c.nv + c.m then b.(j - c.nv) <- b.(j - c.nv) -. (1.0 *. v)
  else begin
    let i = c.art_row.(j - c.nv - c.m) in
    b.(i) <- b.(i) -. (c.art_sig.(j - c.nv - c.m) *. v)
  end

(* Value of a nonbasic column at its current status. *)
let[@inline] nb_value (nb_at : char array) (lo : float array) hi j =
  match nb_at.(j) with 'l' -> lo.(j) | 'u' -> hi.(j) | _ -> 0.0

(* A nonbasic column's cold status: at its lower bound when that is
   finite, else at its upper bound, else free at zero. *)
let[@inline] home_status (lo : float array) (hi : float array) j =
  if Float.is_finite lo.(j) then 'l'
  else if Float.is_finite hi.(j) then 'u'
  else 'f'

(* Where a solve attempt starts. *)
type start =
  | Phase1
      (* the all-slack point, an artificial on each row it leaves out of
         bounds: primal phase 1, then phase 2 *)
  | Slack  (* the all-slack basis, dual feasible as it stands: the dual loop *)
  | Warm of basis  (* the caller's basis, repaired: the dual loop *)

(* Whether a cold solve starts at the all-slack basis.  Every slack is
   basic there, so c_B = 0, y = 0 and each structural column's reduced
   cost is its own cost: the basis is dual feasible as it stands when
   each cost has the sign the column's cold status allows (non-negative
   at a finite lower bound, non-positive at an upper bound alone, zero
   when free).  Dual feasibility alone does not make the dual loop the
   better start: an objective that prices few columns leaves its ratio
   test choosing among zero reduced costs, and on the event LP's
   makespan objective, which prices one column, the dual took more
   pivots than phase 1/2.  So the slack start also asks that most
   structural columns carry a nonzero cost, as the energy objective's
   do. *)
let slack_start_fits (obj : float array) lo hi nv =
  let priced = ref 0 and feasible = ref true in
  for j = 0 to nv - 1 do
    let c = obj.(j) in
    if c <> 0.0 then incr priced;
    if lo.(j) < hi.(j) then
      match home_status lo hi j with
      | 'l' -> if c < 0.0 then feasible := false
      | 'u' -> if c > 0.0 then feasible := false
      | _ -> if c <> 0.0 then feasible := false
  done;
  !feasible && 2 * !priced > nv

(* --- layer timers -----------------------------------------------------
   Exclusive wall seconds per solver layer, summed in one float array
   per solve (no boxed float per pivot) and flushed to {!Stats} once. *)
let l_factor = 0
and l_ftran = 1
and l_btran = 2
and l_price = 3
and l_ratio = 4
and l_update = 5

let[@inline] lap (tm : float array) layer t0 =
  tm.(layer) <- tm.(layer) +. (Unix.gettimeofday () -. t0)

(* --- dual ratio-test selection ----------------------------------------
   Candidates are ordered by ratio ascending, then |alpha| descending,
   then column ascending: a total order (columns are distinct), so the
   choice never depends on gather order.  All keys are finite and
   non-negative, so [<] and [=] agree with [Float.compare]. *)
let[@inline] before (ratio : float array) (alpha : float array)
    (col : int array) p q =
  ratio.(p) < ratio.(q)
  || ratio.(p) = ratio.(q)
     && (alpha.(p) > alpha.(q) || (alpha.(p) = alpha.(q) && col.(p) < col.(q)))

let swap (ratio : float array) (alpha : float array) (col : int array) p q =
  let r = ratio.(p) and a = alpha.(p) and j = col.(p) in
  ratio.(p) <- ratio.(q);
  alpha.(p) <- alpha.(q);
  col.(p) <- col.(q);
  ratio.(q) <- r;
  alpha.(q) <- a;
  col.(q) <- j

(* Restore the min-heap below position [p] of a heap of [n] entries. *)
let rec sift_down ratio alpha col n p =
  let l = (2 * p) + 1 in
  if l < n then begin
    let c = if l + 1 < n && before ratio alpha col (l + 1) l then l + 1 else l in
    if before ratio alpha col c p then begin
      swap ratio alpha col p c;
      sift_down ratio alpha col n c
    end
  end

(* Harris tolerance of the dual ratio test's second pass. *)
let harris_dtol = 1e-7

let dual_select ~ratio ~alpha ~col n ~flip =
  for p = (n / 2) - 1 downto 0 do
    sift_down ratio alpha col n p
  done;
  (* The bound-flip walk pops candidates in order while [flip] takes
     them, and never takes the last one. *)
  let live = ref n in
  while !live > 1 && flip col.(0) alpha.(0) do
    decr live;
    swap ratio alpha col 0 !live;
    sift_down ratio alpha col !live 0
  done;
  (* Harris second pass over what is left.  The strict minimum ratio
     often rides a tiny |alpha|, and t = viol / alpha then throws the
     entering variable far past its opposite bound — the violation
     migrates instead of shrinking.  So admit every candidate whose
     reduced cost would go infeasible by at most [harris_dtol] at the
     head's ratio, and enter the largest |alpha|, ties to the earliest
     in the order; the closing primal run repairs the bounded slack.
     The head itself is always admitted. *)
  let r_e = ratio.(0) in
  let best = ref 0 in
  for q = 1 to !live - 1 do
    let a = alpha.(q) and b = alpha.(!best) in
    if
      (ratio.(q) *. a) -. (r_e *. a) <= harris_dtol
      && (a > b || (a = b && before ratio alpha col q !best))
    then best := q
  done;
  col.(!best)

(* Trivial path for models without constraints. *)
let solve_unconstrained (p : Model.problem) lo hi =
  let x = Array.make p.nv 0.0 in
  let status = ref Optimal in
  for j = 0 to p.nv - 1 do
    let c = p.obj.(j) in
    if c > 0.0 then
      if Float.is_finite lo.(j) then x.(j) <- lo.(j) else status := Unbounded
    else if c < 0.0 then
      if Float.is_finite hi.(j) then x.(j) <- hi.(j) else status := Unbounded
    else x.(j) <- (if Float.is_finite lo.(j) then lo.(j) else min hi.(j) 0.0)
  done;
  {
    status = !status;
    objective = Model.objective_value p x;
    x;
    y = [||];
    dj = Array.copy p.obj;
    iterations = 0;
    basis = None;
  }

let solve_impl ?(max_iter = 0) ?(feas_tol = 1e-7) ?(opt_tol = 1e-7) ?lb ?ub
    ?rhs ?warm ?analysis ?bands ?(check = false) (p : Model.problem) : result =
  let t_solve0 = Unix.gettimeofday () in
  let nv = p.nv and m = p.nr in
  let lb_s = match lb with Some a -> a | None -> p.lb in
  let ub_s = match ub with Some a -> a | None -> p.ub in
  let rhs_s = match rhs with Some a -> a | None -> p.row_rhs in
  check_inputs ~lb:lb_s ~ub:ub_s ~rhs:rhs_s ?analysis p;
  let max_iter = if max_iter > 0 then max_iter else 20_000 + (60 * m) in
  (* Layer times of every attempt, a warm one abandoned for cold
     included, so that they add up to the solve's wall time. *)
  let tm = Array.make 6 0.0 in
  (* Column layout: 0..nv-1 structural, nv..nv+m-1 slacks, then
     artificials.  [ntot] grows as artificials are added. *)
  let cap = nv + m + m in
  let lo = Array.make cap 0.0 and hi = Array.make cap 0.0 in
  Array.blit lb_s 0 lo 0 nv;
  Array.blit ub_s 0 hi 0 nv;
  for i = 0 to m - 1 do
    let j = nv + i in
    match p.row_sense.(i) with
    | Model.Le ->
        lo.(j) <- 0.0;
        hi.(j) <- inf
    | Model.Ge ->
        lo.(j) <- neg_inf;
        hi.(j) <- 0.0
    | Model.Eq ->
        lo.(j) <- 0.0;
        hi.(j) <- 0.0
  done;
  if m = 0 then begin
    let r = solve_unconstrained p lo hi in
    Stats.note_solve ~warm:false ~iterations:0 ~phase1:0 ~dual:0 ~flips:0
      ~factors:0
      ~wall:(Unix.gettimeofday () -. t_solve0);
    r
  end
  else begin
    (* The solve's work, summed over its attempts: an attempt abandoned
       for another counts as much as the one that finishes, as the layer
       timers [tm] already do.  Flushed to {!Stats} once per solve. *)
    let n_factor = ref 0 in
    let c_ft_updates = ref 0 in
    let fill_max = ref 0.0 in
    let c_ftran_sp = ref 0
    and c_ftran_dn = ref 0
    and c_btran_sp = ref 0
    and c_btran_dn = ref 0 in
    let pivots = ref 0 in
    let phase1 = ref 0 in
    let dual_pivots = ref 0 in
    let bound_flips = ref 0 in
    (* One solve attempt from [start], counting its pivots in [iters].
       Slack and warm attempts raise [Fallback] on any irreparable
       state and are retried by the dispatcher below. *)
    let attempt iters start =
      (* Fallback causes are counted for warm attempts only. *)
      let note_diag d =
        match start with Warm _ -> Stats.note_diag d | Phase1 | Slack -> ()
      in
      let nart = ref 0 in
      let art_row = Array.make m (-1) and art_sig = Array.make m 1.0 in
      let cols = { a = p.a; nv; m; art_row; art_sig } in
      let ntot () = nv + m + !nart in
      let col_iter j f =
        if j < nv then Sparse.Csc.iter_col p.a j f
        else if j < nv + m then f (j - nv) 1.0
        else f art_row.(j - nv - m) art_sig.(j - nv - m)
      in
      let where = Array.make cap (-1) in
      let nb_at = Array.make cap 'l' in
      let basis = Array.make m 0 in
      let x_basic = Array.make m 0.0 in
      (match start with
      | Phase1 ->
          (* Initial nonbasic statuses for structural columns. *)
          for j = 0 to nv - 1 do
            nb_at.(j) <- home_status lo hi j
          done;
          (* Row activities of the nonbasic structural point. *)
          let act = Array.make m 0.0 in
          let x0 = Array.init nv (nb_value nb_at lo hi) in
          Sparse.Csc.mult p.a x0 act;
          for i = 0 to m - 1 do
            let sj = nv + i in
            let sval = rhs_s.(i) -. act.(i) in
            if sval >= lo.(sj) -. feas_tol && sval <= hi.(sj) +. feas_tol
            then begin
              basis.(i) <- sj;
              where.(sj) <- i;
              x_basic.(i) <- sval
            end
            else begin
              let bound = if sval < lo.(sj) then lo.(sj) else hi.(sj) in
              nb_at.(sj) <- (if sval < lo.(sj) then 'l' else 'u');
              let r = sval -. bound in
              let k = !nart in
              incr nart;
              art_row.(k) <- i;
              art_sig.(k) <- (if r >= 0.0 then 1.0 else -1.0);
              let aj = nv + m + k in
              lo.(aj) <- 0.0;
              hi.(aj) <- inf;
              basis.(i) <- aj;
              where.(aj) <- i;
              x_basic.(i) <- Float.abs r
            end
          done
      | Slack ->
          (* Every slack basic, every structural column at its cold
             status; the basic point, bounds violated or not, is
             computed once the basis is factored. *)
          for j = 0 to nv - 1 do
            nb_at.(j) <- home_status lo hi j
          done;
          for i = 0 to m - 1 do
            basis.(i) <- nv + i;
            where.(nv + i) <- i
          done
      | Warm wb ->
          (* Install the caller's basis; repair nonbasic statuses against
             the (possibly changed) bounds. *)
          if Array.length wb.basic <> m || Array.length wb.vstat <> nv + m
          then raise Fallback;
          Array.iteri
            (fun k j ->
              if j < 0 || j >= nv + m || where.(j) >= 0 then
                raise Fallback;
              basis.(k) <- j;
              where.(j) <- k)
            wb.basic;
          for j = 0 to nv + m - 1 do
            if where.(j) < 0 then
              nb_at.(j) <-
                (match wb.vstat.(j) with
                | 'l' when Float.is_finite lo.(j) -> 'l'
                | 'u' when Float.is_finite hi.(j) -> 'u'
                | _ -> home_status lo hi j)
          done);
      (* --- basis factorization machinery ------------------------------- *)
      (* Staircase bands: the caller supplies per-structural-column and
         per-row stage indices; each factorization maps them onto the
         current basis (slacks and artificials inherit their row's
         band) so [Lu.factor] can order band-major. *)
      let basis_bands =
        match bands with
        | None -> None
        | Some (cb, rb) ->
            if Array.length cb <> nv || Array.length rb <> m then
              invalid_arg "Revised.solve: bands arrays mismatch problem";
            let band j =
              if j < nv then cb.(j)
              else if j < nv + m then rb.(j - nv)
              else rb.(art_row.(j - nv - m))
            in
            Some (fun () -> Array.init m (fun k -> band basis.(k)))
      in
      let factor_basis () =
        match basis_bands with
        | None -> Lu.factor ~m (fun k f -> col_iter basis.(k) f)
        | Some mk ->
            Lu.factor ~bands:(mk ()) ~m (fun k f -> col_iter basis.(k) f)
      in
      let scratch = Array.make m 0.0 in
      let bwork = Array.make m 0.0 in
      (* --- hypersparse kernel state ------------------------------------
         [w] and [rho] (declared below) carry a support list alongside the
         dense array: [w_n = -1] means the whole array is valid (a dense
         kernel wrote it), [w_n >= 0] means entries outside
         [w_ind.(0 .. w_n-1)] are exactly zero.  The arrays are kept
         all-zero outside the support between uses, so clearing costs
         O(support).  [sb] is the shared sparse right-hand-side scratch
         (kept all-zero between uses), with stamped membership so builds
         that hit a row twice record it once. *)
      let w_ind = Array.make m 0 in
      let w_n = ref 0 in
      let rho_ind = Array.make m 0 in
      let rho_n = ref 0 in
      let sb = Array.make m 0.0 in
      let sb_ind = Array.make m 0 in
      let sb_in = Array.make m (-1) in
      let sb_epoch = ref 0 in
      (* Adaptive dense/sparse switching: the reachability probe costs
         real work even when it aborts at the cutoff, so after [af_trip]
         consecutive dense fallbacks a kernel goes straight to the dense
         path for the next [af_hold] calls before probing sparsity
         again.  Both paths produce bitwise-identical vectors, so the
         policy only ever moves time. *)
      let af_trip = 4 and af_hold = 64 in
      let ft_fail = ref 0 and ft_skip = ref 0 in
      let bt_fail = ref 0 and bt_skip = ref 0 in
      (* Factorize the basis, standing each row's slack in for a column
         {!Lu.factor} found singular, until the factorization is clean. *)
      let rec factor_repaired depth =
        if depth > 4 then failwith "Revised: unable to repair singular basis";
        let f = factor_basis () in
        incr n_factor;
        match f.Lu.replaced with
        | [] -> f
        | reps ->
            List.iter
              (fun (kpos, row) ->
                let old = basis.(kpos) in
                where.(old) <- -1;
                nb_at.(old) <- home_status lo hi old;
                let slack = nv + row in
                if where.(slack) >= 0 then
                  failwith "Revised: basis repair failed (slack already basic)";
                basis.(kpos) <- slack;
                where.(slack) <- kpos)
              reps;
            factor_repaired (depth + 1)
      in
      (* Forrest–Tomlin state: [ft] wraps the current factorization with
         updatable U storage, rebuilt (cheaply — the workspace is reused)
         at every refactorization. *)
      let ftw = Lu.Ft.make_wsp m in
      (* Test-only ([~check:true]): the structure the unchecked kernels
         index through, re-checked after every factorization and every
         update. *)
      let check_structure what u =
        if check then
          match Lu.Ft.validate u with
          | Ok () -> ()
          | Error e ->
              raise
                (Invariant_broken
                   (Printf.sprintf "iteration %d: %s: %s" !iters what e))
      in
      let new_factor () =
        let t0 = Unix.gettimeofday () in
        let u = Lu.Ft.of_factor ftw (factor_repaired 0) in
        lap tm l_factor t0;
        check_structure "factorization" u;
        u
      in
      let ft = ref (new_factor ()) in
      (* [bwork <- rhs - N x_N]: the right-hand side of the basic point *)
      let nonbasic_rhs () =
        Array.blit rhs_s 0 bwork 0 m;
        for j = 0 to ntot () - 1 do
          if where.(j) < 0 then begin
            let v = nb_value nb_at lo hi j in
            if v <> 0.0 then col_sub cols j v bwork
          end
        done
      in
      (* [x_fresh]: [x_basic] is what [recompute_x_basic] would write
         from the factors in hand — no pivot and no bound flip has moved
         it since the last recompute. *)
      let x_fresh = ref false in
      let recompute_x_basic () =
        let t0 = Unix.gettimeofday () in
        nonbasic_rhs ();
        Lu.Ft.ftran_d !ft ~keep_spike:false ~b:bwork ~x:x_basic ~scratch;
        x_fresh := true;
        lap tm l_ftran t0
      in
      let refactorize () =
        if Lu.Ft.fill_hwm !ft > !fill_max then fill_max := Lu.Ft.fill_hwm !ft;
        ft := new_factor ();
        recompute_x_basic ()
      in
      (* Refactorization trigger, checked at every loop top. *)
      let need_refactor () =
        Lu.Ft.nupdates !ft >= ft_update_cap
        || Lu.Ft.fill_ratio !ft > refactor_fill_limit
      in
      recompute_x_basic ();
      (* The simplex work vectors, with support state for the sparse
         kernels (see above). *)
      let w = Array.make m 0.0 in
      let rho = Array.make m 0.0 in
      (* Solve B w = sb (support [sb_ind.(0 .. nb-1)]) and clear [sb].
         Keeps [w]'s support state and the kernel counters. *)
      let solve_into_w ~keep_spike nb =
        (match !w_n with
        | -1 -> Array.fill w 0 m 0.0
        | n ->
            for t2 = 0 to n - 1 do
              w.(w_ind.(t2)) <- 0.0
            done);
        let skipping = !ft_skip > 0 in
        let r =
          if skipping then begin
            decr ft_skip;
            Array.fill bwork 0 m 0.0;
            for s2 = 0 to nb - 1 do
              let i = sb_ind.(s2) in
              bwork.(i) <- sb.(i)
            done;
            Lu.Ft.ftran_d !ft ~keep_spike ~b:bwork ~x:w ~scratch;
            -1
          end
          else
            Lu.Ft.ftran_sp !ft ~keep_spike ~nb ~bidx:sb_ind ~b:sb ~x:w
              ~xind:w_ind
        in
        for s2 = 0 to nb - 1 do
          sb.(sb_ind.(s2)) <- 0.0
        done;
        if r < 0 then begin
          w_n := -1;
          incr c_ftran_dn;
          if not skipping then begin
            incr ft_fail;
            if !ft_fail >= af_trip then begin
              ft_fail := 0;
              ft_skip := af_hold
            end
          end
        end
        else begin
          w_n := r;
          incr c_ftran_sp;
          ft_fail := 0
        end;
        (* The ratio test scans the support in ascending row order so
           magnitude ties resolve exactly as the dense 0..m-1 loops do. *)
        if !w_n >= 0 then Lu.sort_prefix w_ind !w_n
      in
      (* Add [scale * a_j] to the stamped sparse scratch [sb], whose
         support count is [nb]. *)
      let scatter j scale nb =
        let ep = !sb_epoch in
        col_iter j (fun i v ->
            if sb_in.(i) <> ep then begin
              sb_in.(i) <- ep;
              sb_ind.(!nb) <- i;
              incr nb
            end;
            sb.(i) <- sb.(i) +. (scale *. v))
      in
      (* FTRAN of column [j] into [w], keeping the spike for the
         Forrest–Tomlin update of the pivot that follows. *)
      let ftran j =
        let t0 = Unix.gettimeofday () in
        incr sb_epoch;
        let nb = ref 0 in
        scatter j 1.0 nb;
        solve_into_w ~keep_spike:true !nb;
        lap tm l_ftran t0
      in
      let cost = Array.make cap 0.0 in
      let cb = Array.make m 0.0 in
      let y = Array.make m 0.0 in
      (* What [y] was solved from: the factorization object, its update
         count and the bits of c_B.  [cb] itself doubles as the unit
         BTRAN's dense right-hand side, so c_B is kept apart. *)
      let y_ft = ref None and y_nupd = ref 0 in
      let y_cb = Array.make m 0.0 in
      (* The simplex multipliers: y = B^-T c_B, solved again only when
         the factors or c_B changed since the last solve. *)
      let duals () =
        let t0 = Unix.gettimeofday () in
        for k = 0 to m - 1 do
          cb.(k) <- cost.(basis.(k))
        done;
        let current =
          match !y_ft with
          | Some u when u == !ft && Lu.Ft.nupdates u = !y_nupd ->
              let same = ref true in
              for k = 0 to m - 1 do
                if Int64.bits_of_float cb.(k) <> Int64.bits_of_float y_cb.(k)
                then same := false
              done;
              !same
          | _ -> false
        in
        if not current then begin
          Array.blit cb 0 y_cb 0 m;
          Lu.Ft.btran_d !ft ~c:cb ~y ~scratch;
          y_ft := Some !ft;
          y_nupd := Lu.Ft.nupdates !ft;
          incr c_btran_dn
        end;
        lap tm l_btran t0
      in
      (* Unit-RHS BTRAN: rho = row r of B^-1, the dual simplex's
         pivot-row solve. *)
      let btran_unit r (rho : float array) =
        let t0 = Unix.gettimeofday () in
        sb_ind.(0) <- r;
        sb.(r) <- 1.0;
        (match !rho_n with
        | -1 -> Array.fill rho 0 m 0.0
        | n ->
            for t2 = 0 to n - 1 do
              rho.(rho_ind.(t2)) <- 0.0
            done);
        let skipping = !bt_skip > 0 in
        let res =
          if skipping then begin
            decr bt_skip;
            Array.fill cb 0 m 0.0;
            cb.(r) <- 1.0;
            Lu.Ft.btran_d !ft ~c:cb ~y:rho ~scratch;
            -1
          end
          else
            Lu.Ft.btran_sp !ft ~nc:1 ~cidx:sb_ind ~c:sb ~y:rho ~yind:rho_ind
        in
        sb.(r) <- 0.0;
        if res < 0 then begin
          rho_n := -1;
          incr c_btran_dn;
          if not skipping then begin
            incr bt_fail;
            if !bt_fail >= af_trip then begin
              bt_fail := 0;
              bt_skip := af_hold
            end
          end
        end
        else begin
          rho_n := res;
          incr c_btran_sp;
          bt_fail := 0
        end;
        lap tm l_btran t0
      in
      (* --- simplex iterations ------------------------------------------ *)
      let bland = ref false in
      let degen = ref 0 in
      let price_cursor = ref 0 in
      (* Row-major view of A for dual-simplex pricing; reused across
         solves via [?analysis] when the caller's matrix is unchanged. *)
      let arows_l =
        match analysis with
        | Some a -> lazy a.arows
        | None -> lazy (Sparse.Csc.rows p.a)
      in
      (* Touched-column workspace for pivot-row pricing (alpha = rho^T A
         gathered over supp(rho)); stamped by iteration number, so one
         gather per iteration needs no reset. *)
      let alpha_acc = Array.make cap 0.0 in
      let stamp = Array.make cap (-1) in
      let touched = Array.make cap 0 in
      (* Dual ratio-test candidates and pending bound flips, kept in
         preallocated parallel arrays: the test runs every dual pivot. *)
      let dc_ratio = Array.make cap 0.0 in
      let dc_alpha = Array.make cap 0.0 in
      let dc_j = Array.make cap 0 in
      let df_j = Array.make cap 0 in
      let df_delta = Array.make cap 0.0 in
      (* Test-only per-pivot invariant check ([~check:true]): recompute
         the basic point from a local fresh factorization and compare.
         The live [ft] state is never touched, so the check composes with
         the Forrest–Tomlin workspace (whose single [wsp] cannot back two
         factorizations at once). *)
      let check_invariants () =
        if check then begin
          let saved = Array.copy x_basic in
          let f = factor_basis () in
          nonbasic_rhs ();
          Lu.solve f ~b:bwork ~x:x_basic ~scratch;
          let drift = ref 0.0 in
          for k = 0 to m - 1 do
            let d = Float.abs (x_basic.(k) -. saved.(k)) in
            if d > !drift then drift := d
          done;
          Array.blit saved 0 x_basic 0 m;
          if !drift > 1e-6 then
            raise
              (Invariant_broken
                 (Printf.sprintf
                    "iteration %d: basic point drifts %g from a fresh \
                     factorization (%d columns replaced)"
                    !iters !drift
                    (List.length f.Lu.replaced)))
        end
      in
      (* Record the just-executed pivot at position [r] in the working
         factorization: a Forrest–Tomlin update, consuming the spike kept
         by the entering column's FTRAN.  An FT refusal — zero or
         uncertified border diagonal — leaves the updated state unusable,
         and the basis arrays already reflect the pivot, so
         refactorizing from the basis is the exact recovery. *)
      let pivot_update (w : float array) r =
        let t0 = Unix.gettimeofday () in
        let ok = Lu.Ft.update !ft ~pos:r ~wr:w.(r) in
        lap tm l_update t0;
        if ok then begin
          incr c_ft_updates;
          check_structure "update" !ft
        end
        else refactorize ()
      in
      (* Ratio test plus bound-flip/pivot for entering column [je] moving
         in direction [s]. *)
      let enter_column je s =
        ftran je;
        let t0 = Unix.gettimeofday () in
        (* Two-pass Harris ratio test, scanned over [w]'s support (the
           dense pass skips zero entries through the same magnitude
           filter). *)
        let sup_n = if !w_n < 0 then m else !w_n in
        let theta_max = ref inf in
        let t_flip =
          if Float.is_finite lo.(je) && Float.is_finite hi.(je) then
            hi.(je) -. lo.(je)
          else inf
        in
        for ti = 0 to sup_n - 1 do
          let k = if !w_n < 0 then ti else w_ind.!(ti) in
          let delta = s *. w.!(k) in
          if Float.abs delta > 1e-9 then begin
            let b = basis.!(k) in
            if delta > 0.0 && Float.is_finite lo.!(b) then begin
              let sl0 = x_basic.!(k) -. lo.!(b) in
              let slack = if sl0 > 0.0 then sl0 else 0.0 in
              let r = (slack +. feas_tol) /. delta in
              if r < !theta_max then theta_max := r
            end
            else if delta < 0.0 && Float.is_finite hi.!(b) then begin
              let sl0 = hi.!(b) -. x_basic.!(k) in
              let slack = if sl0 > 0.0 then sl0 else 0.0 in
              let r = (slack +. feas_tol) /. -.delta in
              if r < !theta_max then theta_max := r
            end
          end
        done;
        if !theta_max = inf && t_flip = inf then begin
          lap tm l_ratio t0;
          `Unbounded
        end
        else begin
          (* pass 2: among blocking candidates within theta_max pick the
             largest pivot magnitude *)
          let leave = ref (-1) and lmag = ref 0.0 and lt = ref inf in
          for ti = 0 to sup_n - 1 do
            let k = if !w_n < 0 then ti else w_ind.!(ti) in
            let delta = s *. w.!(k) in
            if Float.abs delta > 1e-9 then begin
              let b = basis.!(k) in
              (* slack < 0 encodes "not blocking" — real slacks are
                 clamped non-negative, so no option allocation needed *)
              let slack =
                if delta > 0.0 && Float.is_finite lo.!(b) then begin
                  let sl0 = x_basic.!(k) -. lo.!(b) in
                  if sl0 > 0.0 then sl0 else 0.0
                end
                else if delta < 0.0 && Float.is_finite hi.!(b) then begin
                  let sl0 = hi.!(b) -. x_basic.!(k) in
                  if sl0 > 0.0 then sl0 else 0.0
                end
                else -1.0
              in
              if slack >= 0.0 then begin
                let r = slack /. Float.abs delta in
                if r <= !theta_max && Float.abs delta > !lmag then begin
                  leave := k;
                  lmag := Float.abs delta;
                  lt := r
                end
              end
            end
          done;
          let t_leave = if !leave >= 0 then !lt else inf in
          let res =
            if t_flip < t_leave then begin
              (* bound flip: no basis change *)
              for ti = 0 to sup_n - 1 do
                let k = if !w_n < 0 then ti else w_ind.!(ti) in
                x_basic.!(k) <- x_basic.!(k) -. (s *. t_flip *. w.!(k))
              done;
              x_fresh := false;
              nb_at.(je) <- (if nb_at.(je) = 'l' then 'u' else 'l');
              lap tm l_ratio t0;
              check_invariants ();
              if t_flip <= 1e-10 then incr degen else degen := 0;
              `Ok
            end
            else if !leave < 0 then begin
              lap tm l_ratio t0;
              `Unbounded
            end
            else begin
              let r = !leave in
              let t = t_leave in
              for ti = 0 to sup_n - 1 do
                let k = if !w_n < 0 then ti else w_ind.!(ti) in
                x_basic.!(k) <- x_basic.!(k) -. (s *. t *. w.!(k))
              done;
              x_fresh := false;
              let entering_val = nb_value nb_at lo hi je +. (s *. t) in
              let leaving = basis.(r) in
              where.(leaving) <- -1;
              nb_at.(leaving) <- (if s *. w.(r) > 0.0 then 'l' else 'u');
              basis.(r) <- je;
              where.(je) <- r;
              x_basic.(r) <- entering_val;
              lap tm l_ratio t0;
              pivot_update w r;
              check_invariants ();
              if t <= 1e-10 then incr degen else degen := 0;
              `Ok
            end
          in
          if !degen > 200 + m then bland := true
          else if !degen = 0 then bland := false;
          res
        end
      in
      let run_phase () =
        let outcome = ref `Run in
        while !outcome = `Run do
          if !iters >= max_iter then outcome := `Iter_limit
          else begin
            incr iters;
            if need_refactor () then refactorize ();
            duals ();
            (* Pricing, one loop for both rules: Dantzig's over a partial
               window from a rotating cursor, stopping once a window's
               worth of columns has been examined with a candidate in
               hand; Bland's as a window of 0 from column 0, which stops
               at the first candidate.  Optimality is still exact: the
               phase only ends after a full wrap finds no candidate. *)
            let t0 = Unix.gettimeofday () in
            let total = ntot () in
            let window = if !bland then 0 else max 512 (total / 8) in
            let jj = ref (if !bland then 0 else !price_cursor) in
            let scanned = ref 0 in
            let best_j = ref (-1) and best_mag = ref 0.0 and best_dir = ref 0 in
            while !scanned < total && not (!best_j >= 0 && !scanned >= window) do
              let j = !jj in
              if where.!(j) < 0 && lo.!(j) < hi.!(j) then begin
                let d = cost.!(j) -. col_dot cols j y in
                let mag = Float.abs d in
                if mag > !best_mag then begin
                  let tol = opt_tol *. (1.0 +. Float.abs cost.!(j)) in
                  let dir =
                    match nb_at.!(j) with
                    | 'l' -> if d < -.tol then 1 else 0
                    | 'u' -> if d > tol then -1 else 0
                    | _ -> if d < -.tol then 1 else if d > tol then -1 else 0
                  in
                  if dir <> 0 then begin
                    best_j := j;
                    best_mag := mag;
                    best_dir := dir
                  end
                end
              end;
              incr scanned;
              jj := if j + 1 = total then 0 else j + 1
            done;
            if !best_j >= 0 && not !bland then
              price_cursor := if !best_j + 1 = total then 0 else !best_j + 1;
            lap tm l_price t0;
            if !best_j < 0 then outcome := `Phase_done
            else begin
              match enter_column !best_j (Float.of_int !best_dir) with
              | `Unbounded -> outcome := `Unbounded
              | `Ok -> ()
            end
          end
        done;
        !outcome
      in
      (* --- dual simplex (warm and slack starts) ------------------------
         Invariant: nonbasic reduced costs are dual-feasible (repaired on
         entry); basic variables may violate their bounds.  Each iteration
         picks the most-violated basic variable to leave, prices the row
         with a dual ratio test, flips boxed columns whose full flip is
         cheaper than the remaining violation (bound-flip ratio test) and
         pivots the blocking column in.  A warm start gives up after
         [m + 2000] dual pivots, for a cold solve is then likely the
         cheaper way on; a slack start is the cold solve, and runs under
         the solve's iteration limit alone. *)
      let run_dual () =
        let outcome = ref `Run in
        let bad_pivots = ref 0 in
        let dual0 = !dual_pivots in
        let dual_cap =
          match start with Warm _ -> m + 2000 | Phase1 | Slack -> max_int
        in
        (* Row-major view for pricing: alpha = rho^T A is gathered over
           supp(rho) only, so each iteration costs the fill of the pivot
           row rather than a full-matrix scan.  [stamp]/[touched] give
           O(touched) reset between iterations. *)
        let arows = Lazy.force arows_l in
        (* Reduced costs are maintained incrementally: a pivot with dual
           step theta only moves d_j by -theta * alpha_j, and alpha is
           zero outside the gathered columns.  Entries for basic columns
           are dead (the candidate scan skips them); the array is rebuilt
           from the duals at every refactorization to bound drift. *)
        let d = Array.make (nv + m) 0.0 in
        let recompute_d () =
          duals ();
          let t0 = Unix.gettimeofday () in
          for j = 0 to nv + m - 1 do
            d.!(j) <-
              (if where.!(j) >= 0 then 0.0 else cost.!(j) -. col_dot cols j y)
          done;
          lap tm l_price t0
        in
        recompute_d ();
        while !outcome = `Run do
          if !iters >= max_iter then outcome := `Iter_limit
          else if !dual_pivots - dual0 > dual_cap then begin
            note_diag Stats.Dual_cap_hit;
            outcome := `Numerical
          end
          else begin
            incr iters;
            incr dual_pivots;
            if need_refactor () then begin
              refactorize ();
              recompute_d ()
            end;
            (* leaving row: largest primal bound violation *)
            let t0 = Unix.gettimeofday () in
            let lrow = ref (-1) and viol = ref feas_tol and below = ref true in
            for k = 0 to m - 1 do
              let b = basis.!(k) in
              if lo.!(b) -. x_basic.!(k) > !viol then begin
                lrow := k;
                viol := lo.!(b) -. x_basic.!(k);
                below := true
              end;
              if x_basic.!(k) -. hi.!(b) > !viol then begin
                lrow := k;
                viol := x_basic.!(k) -. hi.!(b);
                below := false
              end
            done;
            lap tm l_price t0;
            if !lrow < 0 then outcome := `Optimal
            else begin
              let r = !lrow in
              (* sigma: direction the leaving basic must move *)
              let sigma = if !below then 1.0 else -1.0 in
              (* rho = row r of B^-1 *)
              btran_unit r rho;
              let t0 = Unix.gettimeofday () in
              (* Entering candidates: nonbasic j whose move in its feasible
                 direction drives x_B(r) toward the violated bound, ranked
                 by dual ratio |d_j| / |alpha_j|.  Gather alpha row-wise:
                 only columns hit by supp(rho) can have nonzero alpha. *)
              let ntouched = ref 0 in
              let touch j =
                if stamp.!(j) <> !iters then begin
                  stamp.!(j) <- !iters;
                  alpha_acc.!(j) <- 0.0;
                  touched.!(!ntouched) <- j;
                  incr ntouched
                end
              in
              let rsup_n = if !rho_n < 0 then m else !rho_n in
              for rt = 0 to rsup_n - 1 do
                let i = if !rho_n < 0 then rt else rho_ind.!(rt) in
                let ri = rho.!(i) in
                if Float.abs ri > 1e-12 then begin
                  let js = nv + i in
                  touch js;
                  alpha_acc.!(js) <- alpha_acc.!(js) +. ri;
                  for k = arows.Sparse.Csc.rowptr.!(i)
                      to arows.Sparse.Csc.rowptr.!(i + 1) - 1
                  do
                    let j = arows.Sparse.Csc.colind.!(k) in
                    touch j;
                    alpha_acc.!(j) <-
                      alpha_acc.!(j) +. (ri *. arows.Sparse.Csc.rvalues.!(k))
                  done
                end
              done;
              let nc = ref 0 in
              for tk = 0 to !ntouched - 1 do
                let j = touched.!(tk) in
                if where.!(j) < 0 && lo.!(j) < hi.!(j) then begin
                  let alpha = alpha_acc.!(j) in
                  if Float.abs alpha > 1e-9 then begin
                    let eligible =
                      match nb_at.!(j) with
                      | 'l' -> sigma *. alpha < 0.0
                      | 'u' -> sigma *. alpha > 0.0
                      | _ -> true
                    in
                    if eligible then begin
                      dc_ratio.!(!nc) <- Float.abs d.!(j) /. Float.abs alpha;
                      dc_alpha.!(!nc) <- Float.abs alpha;
                      dc_j.!(!nc) <- j;
                      incr nc
                    end
                  end
                end
              done;
              lap tm l_price t0;
              if !nc = 0 then
                (* no column can relieve the violation: the bound system
                   is primal infeasible *)
                outcome := `Primal_infeasible
              else begin
                let t0 = Unix.gettimeofday () in
                (* Bound-flip ratio test: a boxed candidate whose full
                   flip removes less than the remaining violation is
                   flipped outright (no pivot).  The flips only change
                   nonbasic values, so their combined effect on x_basic
                   is applied with a single solve (B^-1 sum_j delta_j
                   a_j) after the walk. *)
                let remaining = ref !viol in
                let nflip = ref 0 in
                let flip j a =
                  let range = hi.(j) -. lo.(j) in
                  Float.is_finite range
                  && nb_at.(j) <> 'f'
                  && a *. range < !remaining -. feas_tol
                  && begin
                       df_j.(!nflip) <- j;
                       df_delta.(!nflip) <-
                         (if nb_at.(j) = 'l' then range else -.range);
                       incr nflip;
                       nb_at.(j) <- (if nb_at.(j) = 'l' then 'u' else 'l');
                       incr bound_flips;
                       remaining := !remaining -. (a *. range);
                       true
                     end
                in
                let je =
                  dual_select ~ratio:dc_ratio ~alpha:dc_alpha ~col:dc_j !nc
                    ~flip
                in
                lap tm l_ratio t0;
                if !nflip > 0 then begin
                  (* The combined flip delta is sparse: build it on the
                     stamped scratch (columns may share rows), newest
                     flip first, and update x_basic over the solve's
                     support. *)
                  let t0 = Unix.gettimeofday () in
                  incr sb_epoch;
                  let nb = ref 0 in
                  for f = !nflip - 1 downto 0 do
                    scatter df_j.(f) df_delta.(f) nb
                  done;
                  solve_into_w ~keep_spike:false !nb;
                  let t1 = Unix.gettimeofday () in
                  tm.(l_ftran) <- tm.(l_ftran) +. (t1 -. t0);
                  let sup_n = if !w_n < 0 then m else !w_n in
                  for ti = 0 to sup_n - 1 do
                    let k = if !w_n < 0 then ti else w_ind.(ti) in
                    x_basic.(k) <- x_basic.(k) -. w.(k)
                  done;
                  x_fresh := false;
                  lap tm l_ratio t1
                end;
                ftran je;
                if Float.abs w.(r) < 1e-8 then begin
                  (* numerically unusable pivot: rebuild the
                     factorization once and retry the iteration *)
                  incr bad_pivots;
                  refactorize ();
                  recompute_d ();
                  if !bad_pivots > 3 then outcome := `Numerical
                end
                else begin
                  let t0 = Unix.gettimeofday () in
                  bad_pivots := 0;
                  let b = basis.(r) in
                  let bound = if !below then lo.(b) else hi.(b) in
                  let t = (x_basic.(r) -. bound) /. w.(r) in
                  let sup_n = if !w_n < 0 then m else !w_n in
                  for ti = 0 to sup_n - 1 do
                    let k = if !w_n < 0 then ti else w_ind.(ti) in
                    x_basic.(k) <- x_basic.(k) -. (t *. w.(k))
                  done;
                  x_fresh := false;
                  (* dual step: d_j -= theta * alpha_j, nonzero only on
                     the gathered columns; the leaving column's alpha is
                     exactly 1 (it is row r's basic), so its new
                     reduced cost is -theta *)
                  let theta = d.(je) /. w.(r) in
                  for tk = 0 to !ntouched - 1 do
                    let j = touched.!(tk) in
                    d.!(j) <- d.!(j) -. (theta *. alpha_acc.!(j))
                  done;
                  d.(je) <- 0.0;
                  d.(b) <- -.theta;
                  let entering_val = nb_value nb_at lo hi je +. t in
                  where.(b) <- -1;
                  nb_at.(b) <- (if !below then 'l' else 'u');
                  basis.(r) <- je;
                  where.(je) <- r;
                  x_basic.(r) <- entering_val;
                  lap tm l_ratio t0;
                  pivot_update w r;
                  check_invariants ()
                end
              end
            end
          end
        done;
        !outcome
      in
      (* --- phases ------------------------------------------------------- *)
      let status = ref Optimal in
      (match start with
      | Phase1 ->
          (* phase 1 *)
          if !nart > 0 then begin
            for k = 0 to !nart - 1 do
              cost.(nv + m + k) <- 1.0
            done;
            (match run_phase () with
            | `Phase_done ->
                let infeas = ref 0.0 in
                for k = 0 to m - 1 do
                  if basis.(k) >= nv + m then infeas := !infeas +. x_basic.(k)
                done;
                for k = 0 to !nart - 1 do
                  let aj = nv + m + k in
                  if where.(aj) < 0 then
                    infeas := !infeas +. nb_value nb_at lo hi aj
                done;
                if !infeas > 1e-6 then status := Infeasible
            | `Unbounded ->
                failwith "Revised: phase 1 unbounded (internal error)"
            | `Iter_limit -> status := Iter_limit
            | `Run -> assert false);
            phase1 := !phase1 + !iters;
            (* Fix artificials at zero for phase 2. *)
            for k = 0 to !nart - 1 do
              let aj = nv + m + k in
              cost.(aj) <- 0.0;
              hi.(aj) <- 0.0;
              if where.(aj) < 0 then nb_at.(aj) <- 'l'
            done
          end;
          (* phase 2 *)
          if !status = Optimal then begin
            Array.blit p.obj 0 cost 0 nv;
            bland := false;
            degen := 0;
            match run_phase () with
            | `Phase_done -> ()
            | `Unbounded -> status := Unbounded
            | `Iter_limit -> status := Iter_limit
            | `Run -> assert false
          end
      | Slack | Warm _ ->
          Array.blit p.obj 0 cost 0 nv;
          (* Dual-feasibility repair: a boxed nonbasic sitting at the wrong
             bound for its reduced-cost sign is flipped to the other bound;
             a non-boxed one with the wrong sign cannot be repaired without
             pivoting, so fall back to the cold path.  A slack start only
             begins where nothing needs repair. *)
          duals ();
          let t0 = Unix.gettimeofday () in
          let irreparable () =
            note_diag Stats.Repair_fallback;
            raise Fallback
          in
          let flipped = ref false in
          for j = 0 to nv + m - 1 do
            if where.(j) < 0 && lo.(j) < hi.(j) then begin
              let d = cost.(j) -. col_dot cols j y in
              let tol = opt_tol *. (1.0 +. Float.abs cost.(j)) in
              match nb_at.(j) with
              | 'l' when d < -.tol ->
                  if Float.is_finite hi.(j) then begin
                    nb_at.(j) <- 'u';
                    flipped := true
                  end
                  else irreparable ()
              | 'u' when d > tol ->
                  if Float.is_finite lo.(j) then begin
                    nb_at.(j) <- 'l';
                    flipped := true
                  end
                  else irreparable ()
              | 'f' when Float.abs d > tol -> irreparable ()
              | _ -> ()
            end
          done;
          lap tm l_price t0;
          (* The basic point was computed from these factors when the
             basis was installed; only a flipped status moves it. *)
          if !flipped then recompute_x_basic ();
          let primal_viol () =
            let v = ref 0.0 in
            for k = 0 to m - 1 do
              let b = basis.(k) in
              if lo.(b) -. x_basic.(k) > !v then v := lo.(b) -. x_basic.(k);
              if x_basic.(k) -. hi.(b) > !v then v := x_basic.(k) -. hi.(b)
            done;
            !v
          in
          let finish_primal () =
            (* The dual loop (or the repair alone) reached a primal-feasible
               point; a primal phase-2 run from here certifies optimality
               and cleans up any tolerance-level dual infeasibility left by
               the status repair. *)
            bland := false;
            degen := 0;
            match run_phase () with
            | `Phase_done -> ()
            | `Unbounded -> status := Unbounded
            | `Iter_limit -> status := Iter_limit
            | `Run -> assert false
          in
          if primal_viol () <= feas_tol then finish_primal ()
          else begin
            (* Dual-degenerate warm bases — many nonbasic reduced costs
               exactly zero, typical when the previous cap left the power
               rows slack — stall the dual objective (theta_d = 0 steps)
               and can cycle.  A deterministic dual-feasible cost
               perturbation gives distinct, strictly positive ratios; the
               closing primal run restores the exact costs, so the
               perturbation never reaches the reported solution. *)
            for j = 0 to nv + m - 1 do
              if where.(j) < 0 && lo.(j) < hi.(j) then begin
                let eps =
                  1e-7
                  *. (1.0 +. Float.abs cost.(j))
                  *. (1.0 +. (Float.of_int (j mod 97) /. 97.0))
                in
                match nb_at.(j) with
                | 'l' -> cost.(j) <- cost.(j) +. eps
                | 'u' -> cost.(j) <- cost.(j) -. eps
                | _ -> ()
              end
            done;
            let dual_res = run_dual () in
            Array.blit p.obj 0 cost 0 nv;
            Array.fill cost nv (Array.length cost - nv) 0.0;
            match dual_res with
            | `Optimal -> finish_primal ()
            | `Primal_infeasible -> status := Infeasible
            | `Iter_limit -> status := Iter_limit
            | `Numerical ->
                note_diag Stats.Dual_numerical;
                raise Fallback
            | `Run -> assert false
          end);
      (* --- extraction --------------------------------------------------- *)
      (* The reported solution must depend only on the final basis, never
         on the pivot path that reached it: a warm re-solve ending at the
         same basis as a cold solve has to agree to the last bit.  Sort
         the basis into canonical (column-index) order, drop the update
         file by refactorizing, and recompute the primal point from the
         fresh factors.  When the basis is already in that order, the
         factors carry no update and [x_basic] was computed from them,
         the refactorization would rebuild the factors in hand ({!Lu.factor}
         is a function of the basis columns in order and their bands) and
         the recompute would write the same point, so both are skipped. *)
      let canonical () =
        let sorted = ref true in
        for k = 1 to m - 1 do
          if basis.(k - 1) > basis.(k) then sorted := false
        done;
        !sorted && Lu.Ft.nupdates !ft = 0 && !x_fresh
      in
      if !status = Optimal && not (canonical ()) then begin
        Array.sort Int.compare basis;
        for k = 0 to m - 1 do
          where.(basis.(k)) <- k
        done;
        refactorize ()
      end;
      if Lu.Ft.fill_hwm !ft > !fill_max then fill_max := Lu.Ft.fill_hwm !ft;
      let x = Array.make nv 0.0 in
      for j = 0 to nv - 1 do
        x.(j) <-
          (if where.(j) >= 0 then x_basic.(where.(j)) else nb_value nb_at lo hi j)
      done;
      duals ();
      let dj = Array.make nv 0.0 in
      for j = 0 to nv - 1 do
        dj.(j) <- p.obj.(j) -. col_dot cols j y
      done;
      let basis_out =
        (* A clean basis mentions only structural and slack columns.  An
           artificial still basic (necessarily at zero after a feasible
           phase 1) is stood in for by its row's slack when that slack is
           nonbasic; otherwise no reusable basis is reported. *)
        let ok = ref true in
        let bas = Array.make m 0 in
        for k = 0 to m - 1 do
          let j = basis.(k) in
          if j < nv + m then bas.(k) <- j
          else begin
            let s = nv + art_row.(j - nv - m) in
            if where.(s) < 0 then bas.(k) <- s else ok := false
          end
        done;
        if not !ok then None
        else begin
          let vstat = Array.make (nv + m) 'l' in
          for j = 0 to nv + m - 1 do
            vstat.(j) <- (if where.(j) >= 0 then 'b' else nb_at.(j))
          done;
          Array.iter (fun j -> vstat.(j) <- 'b') bas;
          Some { basic = bas; vstat }
        end
      in
      {
        status = !status;
        objective = Model.objective_value p x;
        x;
        y = Array.copy y;
        dj;
        iterations = !iters;
        basis = basis_out;
      }
    in
    (* Each attempt's pivots join the solve's count however it ends; the
       solve counts as warm when its last attempt was. *)
    let last_warm = ref false in
    let run start =
      let iters = ref 0 in
      last_warm := (match start with Warm _ -> true | Phase1 | Slack -> false);
      Fun.protect
        ~finally:(fun () -> pivots := !pivots + !iters)
        (fun () -> attempt iters start)
    in
    (* A cold solve takes the slack start when it fits, and falls back
       from it once, to phase 1/2. *)
    let cold () =
      if not (slack_start_fits p.obj lo hi nv) then run Phase1
      else begin
        Stats.note_slack_start ();
        try run Slack
        with Fallback | Failure _ ->
          Stats.note_slack_fallback ();
          run Phase1
      end
    in
    let flush () =
      Stats.note_solve ~warm:!last_warm ~iterations:!pivots ~phase1:!phase1
        ~dual:!dual_pivots ~flips:!bound_flips ~factors:!n_factor
        ~wall:(Unix.gettimeofday () -. t_solve0);
      Stats.note_kernels ~ftran_sp:!c_ftran_sp ~ftran_dn:!c_ftran_dn
        ~btran_sp:!c_btran_sp ~btran_dn:!c_btran_dn;
      Stats.note_ft ~updates:!c_ft_updates ~fill_max:!fill_max;
      Stats.note_layers ~factor:tm.(l_factor) ~ftran:tm.(l_ftran)
        ~btran:tm.(l_btran) ~price:tm.(l_price) ~ratio:tm.(l_ratio)
        ~update:tm.(l_update)
    in
    Fun.protect ~finally:flush (fun () ->
        match warm with
        | None -> cold ()
        | Some wb -> (
            try run (Warm wb) with
            | Fallback ->
                Stats.note_fallback ();
                cold ()
            | Failure _ ->
                Stats.note_diag Stats.Failure_fallback;
                Stats.note_fallback ();
                cold ()))
  end

let solve ?max_iter ?feas_tol ?opt_tol ?lb ?ub ?rhs ?warm ?analysis ?bands
    ?check (p : Model.problem) : result =
  Putil.Obs.span ~cat:"lp"
    ~args:
      [
        ("warm", if warm = None then "false" else "true");
        ("rows", string_of_int p.nr);
        ("cols", string_of_int p.nv);
      ]
    "revised.solve"
    (fun () ->
      solve_impl ?max_iter ?feas_tol ?opt_tol ?lb ?ub ?rhs ?warm ?analysis
        ?bands ?check p)
