(** Bounded-variable revised simplex with sparse basis factorization
    ({!Lu}) and Forrest–Tomlin updates ({!Lu.Ft}).

    Every LP runs the same kernels.  FTRAN/BTRAN run hypersparse: the
    triangular solves visit only the symbolic reachability set of the
    right-hand side's nonzeros ({!Lu.Ft.ftran_sp}/{!Lu.Ft.btran_sp}),
    with an adaptive fallback to the dense kernels when the result fills
    in.  Pricing is Dantzig's rule over a rotating partial-pricing
    window, with an automatic switch to (full-scan) Bland's rule after a
    run of degenerate pivots; the ratio test is a two-pass Harris test.
    The basis is refactorized when the Forrest–Tomlin fill ratio exceeds
    2.0 or after 256 updates.

    A cold solve chooses its start from the LP, with no option to
    override it.  When the all-slack basis is dual feasible as it stands
    (every structural cost has the sign its starting bound allows: at
    least zero at a finite lower bound, at most zero at an upper bound
    alone, zero when free) and more than half of the structural columns
    carry a nonzero cost, the dual simplex below runs from that basis,
    with no artificials and no phase 1, under the solve's iteration
    limit; should it give up, the solve restarts once in phase 1/2.
    Every other cold solve repairs its infeasible starting point with a
    phase-1 objective over artificial variables, then runs phase 2.

    Re-solves of the same problem with different bounds or RHS can be
    warm-started: pass a previous result's {!type:basis} as [?warm] and
    the solver repairs it against the new bounds and runs a dual simplex
    (largest-violation leaving row, dual ratio test with bound flips)
    instead of a cold start.  Any irreparable warm state, or more than
    [nr + 2000] dual pivots, falls back to a cold solve, so warm calls
    are never less robust.

    Counters (cold/warm solves, primal/dual pivots, kernel sparse/dense
    splits, warm fallbacks by cause) and exclusive wall times per solver
    layer (factorization, FTRAN, BTRAN, pricing, ratio test,
    Forrest–Tomlin update) are accumulated in {!Stats}. *)

type status = Optimal | Infeasible | Unbounded | Iter_limit

val pp_status : Format.formatter -> status -> unit

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
      (** pivots of the attempt that produced this result; the pivots of
          a warm or slack attempt abandoned on the way count in {!Stats}
          only *)
  basis : basis option;
      (** final simplex basis, reusable as [?warm] on a re-solve of the
          same problem shape; [None] when no clean slack/structural basis
          exists (e.g. constraint-free models) *)
}

type analysis
(** Symbolic analysis of a problem's constraint matrix (row-major view
    used by pivot-row pricing).  Build once with {!make_analysis} and
    pass to every [solve] of the same matrix — cap sweeps and
    branch-and-bound children change only bounds/RHS, so the analysis
    stays valid.  Immutable: safe to share across pool domains. *)

val make_analysis : Model.problem -> analysis

val solve :
  ?max_iter:int ->
  ?feas_tol:float ->
  ?opt_tol:float ->
  ?lb:float array ->
  ?ub:float array ->
  ?rhs:float array ->
  ?warm:basis ->
  ?analysis:analysis ->
  ?bands:int array * int array ->
  ?check:bool ->
  Model.problem ->
  result
(** [solve p] minimizes [p].  [lb]/[ub]/[rhs] override the structural
    bounds / row RHS without rebuilding the problem (used by branch and
    bound and by power-cap re-solves).  [warm] supplies a starting basis
    from a previous solve of the same problem shape ([nv]/[nr]
    unchanged); it is repaired against the current bounds and re-solved
    with the dual simplex, falling back to a cold solve when repair is
    impossible.  [analysis] reuses a {!make_analysis} of [p] (matrix
    unchanged) instead of rebuilding it per solve.  [bands] is a
    [(col_bands, row_bands)] pair of staircase stage indices (lengths
    [nv] and [nr]); every factorization orders the basis band-major
    with Markowitz tie-breaking within a band ({!Lu.factor}'s [?bands]),
    slack and artificial columns inheriting their row's band.  Purely a
    fill-reducing hint: results are unaffected beyond roundoff-level
    pivot ordering.  [max_iter <= 0] selects a size-dependent
    default.  [check] (default [false], for tests) verifies after every
    pivot that the incrementally updated basic point matches a solve
    with a fresh factorization, and after every factorization and every
    Forrest–Tomlin update that the factors' structure is sound
    ({!Lu.Ft.validate}), raising {!Invariant_broken} otherwise; it only
    observes, so the pivots and the result are unchanged.

    The solver's inner loops index without bounds checks, so [solve]
    first raises [Invalid_argument] when [lb] or [ub] is not [nv] long,
    [rhs] not [nr] long, [p.a] not an [nr] × [nv] matrix whose column
    pointers rise from 0 to its entry count and whose row indices are
    all below [nr], or [analysis] made from a matrix of another shape. *)

exception Invariant_broken of string
(** A [~check:true] solve found the basic point drifting more than
    1e-6 from a fresh factorization's, or a factorization or update
    whose structure {!Lu.Ft.validate} rejects. *)

val dual_select :
  ratio:float array ->
  alpha:float array ->
  col:int array ->
  int ->
  flip:(int -> float -> bool) ->
  int
(** The warm dual simplex's ratio-test choice among [n] entering
    candidates, given as parallel arrays (dual ratio, |alpha|, column;
    columns distinct, keys finite and non-negative).  Candidates are
    taken in the order ratio ascending, |alpha| descending, column
    ascending.  The bound-flip walk asks [flip j a] about each in turn,
    never about the last one, and stops at the first refusal; [flip]
    records the flip it accepts.  Among the candidates left, the Harris
    pass admits those whose ratio is within 1e-7 / |alpha| of the
    first's and returns the column with the largest |alpha|, ties going
    to the earliest in the order.  The arrays are reordered in place (a
    heap, so only the walked candidates are ever ordered). *)
