(** Typed structural edits of a compiled LP, with basis-mapped warm
    re-solves (the incremental "what-if" path).

    An edit list is applied {e sequentially}: every row/column index in
    an edit refers to the problem shape produced by the edits before it.
    Additions append (a new row becomes index [nr], a new column index
    [nv]); removals compact (indices above the removed one shift down by
    one).

    {!resolve} is the incremental re-solve: it applies the edits and, when
    given the unedited problem's optimal basis, maps that basis across
    every structural change — additions/removals are evaluated as
    bordered updates against an {!Lu} factorization of the current basis
    ({!Lu.unit_ftran}/{!Lu.unit_btran} pick the deletion pairing with the
    largest available pivot) — and hands the mapped basis to
    {!Revised.solve} as a warm start, whose dual simplex repairs primal
    feasibility.  Whenever no acceptably-conditioned mapping exists
    (singular pairing, excessive factor fill, irreparable dual state),
    the re-solve falls back to a cold solve, so incremental answers are
    never less robust than cold ones — and because {!Revised} extracts
    its solution canonically from the final basis, an incremental
    re-solve that terminates at the same basis as a cold solve reports a
    bit-identical objective. *)

type t =
  | Add_row of {
      name : string;
      terms : (float * int) list;  (** (coefficient, column) *)
      sense : Model.sense;
      rhs : float;
    }  (** append a constraint row *)
  | Remove_row of int
  | Add_col of {
      name : string;
      lb : float;
      ub : float;
      obj : float;
      terms : (float * int) list;  (** (coefficient, row) *)
    }  (** append a structural column *)
  | Remove_col of int
  | Set_bounds of { col : int; lb : float; ub : float }
  | Set_obj of { col : int; obj : float }
  | Set_entry of { row : int; col : int; coef : float }
      (** overwrite one matrix coefficient (0 deletes the entry) *)
  | Set_rhs of { row : int; rhs : float }

val pp : Format.formatter -> t -> unit

val apply : Model.problem -> t list -> Model.problem
(** Apply the edits in order and return the edited problem.  Each run of
    consecutive value edits ([Set_bounds], [Set_obj], [Set_rhs],
    [Set_entry]) is applied in one pass, with at most one rebuild of the
    matrix; each structural edit rebuilds it.  A run whose [Set_entry]
    edits all overwrite stored entries with nonzero coefficients (on a
    matrix that stores no explicit zero) rebuilds nothing: the result
    shares [colptr] and [rowind] with the input and carries a patched
    copy of [values], bit for bit the matrix a rebuild gives.  Raises
    [Invalid_argument] on an out-of-range index, [lb > ub], or a
    non-finite coefficient/RHS. *)

val set_objective : Model.problem -> float array -> t list
(** The minimal [Set_obj] list (one edit per changed coefficient,
    bit-level comparison) turning [p]'s objective vector into the given
    one — how an objective-mode switch is expressed in the edit
    language.  Raises [Invalid_argument] on a length mismatch. *)

val col_map : Model.problem -> t list -> int array
(** [col_map p edits].(j) is the column index of [p]'s column [j] in
    [apply p edits], or [-1] when an edit removed it. *)

val row_map : Model.problem -> t list -> int array
(** Same for row indices. *)

val map_basis :
  Model.problem -> Revised.basis -> t list -> Revised.basis option
(** Map a basis of [p] to a basis of [apply p edits] via bordered
    updates (see above).  [None] means no well-conditioned mapping was
    found and the caller should solve cold. *)

val resolve :
  ?max_iter:int ->
  ?feas_tol:float ->
  ?opt_tol:float ->
  ?warm:Revised.basis ->
  Model.problem ->
  t list ->
  Model.problem * Revised.result
(** [resolve p edits ~warm] = the edited problem and its solution,
    warm-started from the mapped basis when [warm] is given and the
    mapping succeeds, cold otherwise.  Counted in {!Stats} as an edit
    solve (plus an edit fallback when the mapping was abandoned). *)
