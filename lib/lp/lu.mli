(** Sparse LU factorization of a simplex basis.

    Left-looking column factorization in the style of Gilbert–Peierls,
    with two fill-control measures that matter enormously on LP bases:
    columns are pre-ordered sparsest-first, and pivots use threshold
    partial pivoting (sparsest row within 10x of the max magnitude).
    Singular columns are replaced by unit columns of uncovered rows so a
    usable factorization is always produced; callers repair their basis
    from [replaced]. *)

type tsym = {
  lsucc_ptr : int array;
  lsucc_ind : int array;
      (** structure-only transpose of [lrows]: successors of each pivot
          position in the L^T backward solve *)
}
(** Symbolic data built lazily, on the first sparse BTRAN of the {!Ft}
    kernels. *)

type t = {
  m : int;
  p : int array;  (** [p.(k)] = original row pivoted at step [k] *)
  pos : int array;  (** inverse of [p] *)
  cperm : int array;
      (** [cperm.(k)] = input column factored at step [k]; columns are
          pre-ordered sparsest-first to limit fill *)
  lrows : int array array;  (** strictly-lower entries per column, pivot order *)
  lvals : float array array;
  urows : int array array;  (** strictly-upper entries per column, pivot order *)
  uvals : float array array;
  udiag : float array;
  replaced : (int * int) list;
      (** [(col, row)]: basis column [col] was singular and stands
          replaced by the unit column of original row [row] *)
  mutable tsym : tsym option;  (** lazily-built {!tsym} *)
}

val nnz : t -> int
(** Stored entries in both factors (including unit diagonals). *)

val factor :
  ?bands:int array -> m:int -> (int -> (int -> float -> unit) -> unit) -> t
(** [factor ~m col_iter] factorizes the [m]×[m] matrix whose [k]-th
    column is enumerated by [col_iter k f].  The per-column elimination
    visits only the prior columns reachable through the L dependency
    DAG (Gilbert–Peierls).  [?bands] assigns each input column a
    staircase band; columns are then pre-ordered band-major with
    sparsest-first (Markowitz-style) tie-breaking within a band,
    confining fill to the staircase blocks of chain-structured bases.
    Omitting [?bands] reproduces the historical sparsest-first ordering
    exactly. *)

val solve : t -> b:float array -> x:float array -> scratch:float array -> unit
(** Solve [B x = b].  [b] is indexed by original rows, [x] by basis
    position; [scratch] is caller-provided workspace.  All length [m]. *)

val solve_t :
  t -> c:float array -> y:float array -> scratch:float array -> unit
(** Solve [B^T y = c].  [c] is indexed by basis position, [y] by original
    rows. *)

val sort_prefix : int array -> int -> unit
(** [sort_prefix a n] sorts [a.(0 .. n-1)] ascending, in place. *)

(** {2 Bordered basis updates}

    Kernels behind {!Edit}'s structural warm starts: scoring the
    deletion of a row or of a basis column from a factorized basis
    without refactorizing.  Each is one triangular solve against the
    existing factors; the returned magnitudes are the pivots the updated
    factorization would have, so a caller rejects (falls back cold) any
    pairing whose pivot is numerically tiny. *)

val unit_ftran : t -> row:int -> float array
(** [unit_ftran t ~row] = [B⁻¹ e_row], indexed by basis position: the
    bordered pivot column for deleting original row [row].  [|x.(k)|] is
    the pivot magnitude available for pairing the row deletion with the
    removal of basis position [k]. *)

val unit_btran : t -> pos:int -> float array
(** [unit_btran t ~pos] = [B⁻ᵀ e_pos], indexed by original row: the
    bordered pivot row for deleting the basis column at position [pos].
    [|y.(r)|] is the pivot available for standing row [r]'s slack in for
    the deleted column. *)

(** {2 Forrest–Tomlin updates}

    Replacing a basis column turns one column of [U] into the FTRANed
    spike; the spiked slot is cyclically permuted to the border of the
    active elimination order and its old row of [U] is eliminated
    against the remaining rows, recording the multipliers as a {e row
    eta} applied between [L] and [U].  Row etas create no fill outside
    the eliminated row, so [U] stays sparse where product-form column
    etas accrete it — the refactorization trigger becomes a fill ratio,
    not an update count.  With zero updates the dense kernels replay
    {!solve}/{!solve_t} bit for bit.

    The sparse-RHS kernels are hypersparse: Gilbert–Peierls symbolic
    reachability over the factors' dependency DAG, so the triangular
    sweeps visit only positions reachable from the RHS nonzeros, with
    timestamped accumulators instead of O(m) clears, falling back to the
    dense kernels when the reach set fills in.

    The solves' numeric loops index without bounds checks.  Each solve
    raises [Invalid_argument] when a vector it is given is not [m] long,
    or when a sparse right-hand side's seed indices are not distinct
    indices below [m]; {!Ft.of_factor} checks the factorization they
    index through. *)
module Ft : sig
  type wsp
  (** Reusable m-sized workspace; one per concurrent solver, valid
      across refactorizations of the same dimension. *)

  type u
  (** An updatable factorization: a frozen {!t} plus dynamic U storage,
      the active elimination order, and the row-eta file. *)

  val make_wsp : int -> wsp

  val of_factor : wsp -> t -> u
  (** Wrap a fresh factorization.  The base [t] is not mutated and
      remains independently usable; [wsp] becomes owned by the returned
      [u] until the next [of_factor] on the same workspace.  Raises
      [Invalid_argument] when [wsp] was made for another dimension, or
      when [t]'s permutations or factor indices are not those of a
      factorization of dimension [t.m] (as {!factor} builds them): the
      solves below index through them without bounds checks. *)

  val validate : u -> (unit, string) result
  (** Re-check the whole structure the solves index through: the row
      and column permutations are mutually inverse, every L, U and
      row-eta index is a slot below [m] (L below and U above the
      diagonal of the active order, U's column and row copies agreeing
      in count), and the active order visits each slot exactly once.
      [Error] names the first violation.  Linear in the factors' size;
      for tests and {!Revised.solve}'s [~check:true]. *)

  val fill_ratio : u -> float
  (** (L + dynamic U + row-eta nonzeros) / nonzeros at [of_factor]
      time; {!Revised} refactorizes above 2.0. *)

  val fill_hwm : u -> float
  (** High-water [fill_ratio] since [of_factor]. *)

  val nupdates : u -> int

  val update : u -> pos:int -> wr:float -> bool
  (** [update u ~pos ~wr] replaces the basis column at position [pos]
      by the column whose FTRAN ([keep_spike:true]) was just computed;
      [wr] is that FTRAN's value at [pos] (the pivot element).  Returns
      [false] — leaving [u] unusable, the caller must refactorize —
      when the new border diagonal is zero or fails the 1e-9
      certification against the determinant identity [d = wr · u_tt]. *)

  val ftran_d :
    u ->
    keep_spike:bool ->
    b:float array ->
    x:float array ->
    scratch:float array ->
    unit
  (** Dense FTRAN; contract of {!solve}.  [keep_spike] retains the
      post-L post-eta intermediate for a subsequent {!update}. *)

  val btran_d :
    u -> c:float array -> y:float array -> scratch:float array -> unit
  (** Dense BTRAN; contract of {!solve_t}. *)

  val ftran_sp :
    u ->
    keep_spike:bool ->
    nb:int ->
    bidx:int array ->
    b:float array ->
    x:float array ->
    xind:int array ->
    int
  (** Sparse-RHS FTRAN: [b] is dense with nonzeros exactly at the [nb]
      distinct original-row indices [bidx.(0 .. nb-1)].  Returns [-1] if
      the dense kernel ran (the result filled in past the density
      cutoff; all of [x] is valid), or the support size [n]:
      [xind.(0 .. n-1)] lists (sorted ascending) the positions of all
      possibly-nonzero entries of [x], and [x] is written only there.
      Callers must keep [x] all-zero outside the returned support
      between calls.  On the sparse path the numerics are bitwise
      identical to {!ftran_d} at every listed position. *)

  val btran_sp :
    u ->
    nc:int ->
    cidx:int array ->
    c:float array ->
    y:float array ->
    yind:int array ->
    int
  (** Sparse-RHS BTRAN with the contract of {!ftran_sp}: [c] has
      nonzeros exactly at basis positions [cidx.(0 .. nc-1)]; [yind]
      lists the original-row indices of [y]'s possibly-nonzero
      entries. *)
end
