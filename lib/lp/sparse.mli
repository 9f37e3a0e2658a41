(** Sparse linear-algebra primitives used by the simplex solver. *)

module Coo : sig
  (** Triplet (coordinate) builder for sparse matrices.  Entries may be
      added in any order; duplicates for the same coordinate are summed
      when frozen into a {!Csc.t}. *)

  type t

  val create : ?capacity:int -> unit -> t

  val add : t -> int -> int -> float -> unit
  (** [add t i j v] records entry [(i, j) = v].  Exact zeros are dropped
      from storage but still grow the logical dimensions, so a trailing
      all-zero row or column survives the freeze to {!Csc.t}.
      Raises [Invalid_argument] on negative indices. *)

  val nnz : t -> int
end

module Csc : sig
  (** Immutable compressed-sparse-column matrix. *)

  type t = {
    nrows : int;
    ncols : int;
    colptr : int array;  (** length [ncols + 1] *)
    rowind : int array;
    values : float array;
  }

  val nrows : t -> int
  val ncols : t -> int
  val nnz : t -> int

  val of_coo : ?nrows:int -> ?ncols:int -> Coo.t -> t
  (** Freeze a triplet builder.  Rows within each column are sorted and
      duplicate coordinates summed; entries that cancel to zero are
      dropped.  [nrows]/[ncols] enlarge the logical shape beyond the
      largest recorded index. *)

  val iter_col : t -> int -> (int -> float -> unit) -> unit
  (** [iter_col t j f] calls [f row value] for every stored entry of
      column [j], in increasing row order. *)

  val dot_col : t -> int -> float array -> float
  (** Inner product of a column with a dense vector. *)

  type rows = { rowptr : int array; colind : int array; rvalues : float array }

  val rows : t -> rows
  (** Row-major (CSR) view of the matrix: [rowptr] has length
      [nrows + 1], and row [i]'s entries are [colind]/[rvalues] slices
      [rowptr.(i) .. rowptr.(i+1) - 1] in increasing column order.  Used
      by the dual simplex to price the pivot row against only the rows in
      the support of [rho]. *)

  val mult : t -> float array -> float array -> unit
  (** [mult t x y] accumulates [A x] into [y] ([y] is not cleared). *)

  val mult_t : t -> float array -> float array
  (** [mult_t t y] is the dense vector [A^T y]. *)

  val to_dense : t -> float array array
end
