(** LP presolve: fixed-variable substitution, empty/singleton-row
    elimination, doubleton-equality substitution and empty-column fixing,
    applied to fixpoint before the simplex, followed by power-of-two
    geometric-mean row/column equilibration of the reduced problem
    ([POWERLIM_SCALE=0] disables).  Scale factors are powers of two, so
    the scaling transformation and its inverse are bitwise exact:
    results are reported in original units with no rounding introduced
    by scaling itself.  See the implementation header for the reduction
    list. *)

type vstate =
  | Kept
  | Fixed of float
  | Subst of { of_var : int; scale : float; offset : float }
      (** var = offset + scale * of_var *)

type reduction = {
  problem : Model.problem;  (** the reduced problem *)
  keep_vars : int array;  (** reduced column -> original column *)
  state : vstate array;  (** per original column *)
  kept_rows : int array;  (** reduced row -> original row *)
  dropped_rows : int;
  dropped_cols : int;
  subst_order : int list;  (** substituted variables, oldest first *)
  row_scale : float array;
      (** per reduced row: power-of-two equilibration factor the scaled
          row was multiplied by (all 1.0 with [POWERLIM_SCALE=0]) *)
  col_scale : float array;
      (** per reduced column: original x = col_scale * scaled x *)
}

type outcome = Reduced of reduction | Proven_infeasible

val reduce : Model.problem -> outcome

val restore : reduction -> float array -> float array
(** Map a reduced-space solution back to the original variables.  The
    input lives in the {e scaled} reduced space (what solving
    [r.problem] yields); since equilibration factors are powers of two,
    the original-unit values are exact. *)

val fixed_objective : Model.problem -> reduction -> float
(** Objective contribution of the variables presolve fixed outright. *)

val solve_reduction :
  ?max_iter:int ->
  ?feas_tol:float ->
  ?opt_tol:float ->
  ?rhs:float array ->
  ?warm:Revised.basis ->
  ?analysis:Revised.analysis ->
  ?bands:int array * int array ->
  Model.problem ->
  reduction ->
  Revised.result
(** [solve_reduction p r] solves a previously computed reduction of [p]
    and restores the solution to the original space — the warm re-solve
    path behind {!Core.Event_lp.solve_prepared}.  [rhs] overrides the
    {e original-space} row RHS (each kept row's reduced RHS is patched by
    the delta); only sound when the changed rows were kept by the
    reduction and cannot alter any reduction decision.  An [rhs] that is
    not [p.nr] long raises [Invalid_argument].  [warm] and the
    returned [basis] field are in the {e reduced} space of [r], as is
    [analysis] (a {!Revised.make_analysis} of [r]'s reduced problem,
    valid across bound/RHS-only re-solves).  [bands] is an
    {e original-space} [(col_bands, row_bands)] staircase-stage pair
    (see {!Revised.solve}); surviving columns and rows keep their
    stage index through the reduction. *)

val solve :
  ?max_iter:int -> ?feas_tol:float -> ?opt_tol:float -> Model.problem ->
  Revised.result
(** Presolve, solve the reduction with {!Revised}, restore.  A drop-in
    replacement for {!Revised.solve} on continuous models.  The returned
    [basis] is [None]: a one-shot solve's reduced-space basis has no
    aligned re-solve to feed; use {!reduce} + {!solve_reduction} to
    warm-start across re-solves. *)
