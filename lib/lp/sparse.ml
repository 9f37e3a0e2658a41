(** Sparse linear-algebra primitives used by the simplex solver.

    Matrices are built as triplets ({!Coo}) and frozen into compressed
    sparse column form ({!Csc}) for the column-oriented access patterns of
    the revised simplex method. *)

module Coo = struct
  (** Triplet (coordinate) builder for sparse matrices. Duplicate entries
      for the same coordinate are summed when frozen to {!Csc.t}. *)

  type t = {
    mutable nnz : int;
    mutable rows : int array;
    mutable cols : int array;
    mutable vals : float array;
    mutable nrows : int;
    mutable ncols : int;
  }

  let create ?(capacity = 64) () =
    {
      nnz = 0;
      rows = Array.make capacity 0;
      cols = Array.make capacity 0;
      vals = Array.make capacity 0.0;
      nrows = 0;
      ncols = 0;
    }

  let ensure_capacity t n =
    if n > Array.length t.rows then begin
      let cap = max n (2 * Array.length t.rows) in
      let grow_i a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.nnz; b in
      let grow_f a = let b = Array.make cap 0.0 in Array.blit a 0 b 0 t.nnz; b in
      t.rows <- grow_i t.rows;
      t.cols <- grow_i t.cols;
      t.vals <- grow_f t.vals
    end

  let add t i j v =
    if i < 0 || j < 0 then invalid_arg "Coo.add: negative index";
    (* Dimensions grow for every recorded coordinate, including explicit
       zeros: a builder whose last row or column holds only 0.0 entries
       must still freeze to a CSC of the full logical shape. *)
    if i >= t.nrows then t.nrows <- i + 1;
    if j >= t.ncols then t.ncols <- j + 1;
    if v <> 0.0 then begin
      ensure_capacity t (t.nnz + 1);
      t.rows.(t.nnz) <- i;
      t.cols.(t.nnz) <- j;
      t.vals.(t.nnz) <- v;
      t.nnz <- t.nnz + 1
    end

  let nnz t = t.nnz
end

module Csc = struct
  (** Immutable compressed-sparse-column matrix. *)

  type t = {
    nrows : int;
    ncols : int;
    colptr : int array;  (** length [ncols + 1] *)
    rowind : int array;  (** row index of each stored entry *)
    values : float array;
  }

  let nrows t = t.nrows
  let ncols t = t.ncols
  let nnz t = t.colptr.(t.ncols)

  (* Freeze a triplet builder, summing duplicates within a column. *)
  let of_coo ?nrows ?ncols (c : Coo.t) =
    let nr = match nrows with Some n -> max n c.Coo.nrows | None -> c.Coo.nrows in
    let nc = match ncols with Some n -> max n c.Coo.ncols | None -> c.Coo.ncols in
    let count = Array.make (nc + 1) 0 in
    for k = 0 to c.Coo.nnz - 1 do
      let j = c.Coo.cols.(k) in
      count.(j + 1) <- count.(j + 1) + 1
    done;
    for j = 1 to nc do count.(j) <- count.(j) + count.(j - 1) done;
    let colptr0 = Array.copy count in
    let ri = Array.make c.Coo.nnz 0 in
    let vs = Array.make c.Coo.nnz 0.0 in
    let fill = Array.make nc 0 in
    for k = 0 to c.Coo.nnz - 1 do
      let j = c.Coo.cols.(k) in
      let at = colptr0.(j) + fill.(j) in
      ri.(at) <- c.Coo.rows.(k);
      vs.(at) <- c.Coo.vals.(k);
      fill.(j) <- fill.(j) + 1
    done;
    (* Sort each column by row index (insertion sort: columns are short)
       and merge duplicates. *)
    let out_ri = Array.make c.Coo.nnz 0 in
    let out_vs = Array.make c.Coo.nnz 0.0 in
    let colptr = Array.make (nc + 1) 0 in
    let w = ref 0 in
    for j = 0 to nc - 1 do
      colptr.(j) <- !w;
      let lo = colptr0.(j) and hi = colptr0.(j) + fill.(j) in
      for k = lo + 1 to hi - 1 do
        let r = ri.(k) and v = vs.(k) in
        let m = ref k in
        while !m > lo && ri.(!m - 1) > r do
          ri.(!m) <- ri.(!m - 1);
          vs.(!m) <- vs.(!m - 1);
          decr m
        done;
        ri.(!m) <- r;
        vs.(!m) <- v
      done;
      let k = ref lo in
      while !k < hi do
        let r = ri.(!k) in
        let acc = ref 0.0 in
        while !k < hi && ri.(!k) = r do
          acc := !acc +. vs.(!k);
          incr k
        done;
        if !acc <> 0.0 then begin
          out_ri.(!w) <- r;
          out_vs.(!w) <- !acc;
          incr w
        end
      done
    done;
    colptr.(nc) <- !w;
    {
      nrows = nr;
      ncols = nc;
      colptr;
      rowind = Array.sub out_ri 0 !w;
      values = Array.sub out_vs 0 !w;
    }

  let iter_col t j f =
    if j < 0 || j >= t.ncols then invalid_arg "Csc.iter_col";
    for k = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      f t.rowind.(k) t.values.(k)
    done

  (** [dot_col t j y] computes the inner product of column [j] with the
      dense vector [y]. *)
  let dot_col t j (y : float array) =
    let s = ref 0.0 in
    for k = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      s := !s +. (t.values.(k) *. y.(t.rowind.(k)))
    done;
    !s

  type rows = { rowptr : int array; colind : int array; rvalues : float array }

  (** Row-major (CSR) view of the same matrix.  The dual simplex prices
      the pivot row [rho^T B^-1 A] by gathering only the rows in
      [supp rho], which needs row-wise access; columns within each row
      come out in increasing order. *)
  let rows t =
    let nr = t.nrows in
    let nnz = Array.length t.rowind in
    let rowptr = Array.make (nr + 1) 0 in
    for k = 0 to nnz - 1 do
      rowptr.(t.rowind.(k) + 1) <- rowptr.(t.rowind.(k) + 1) + 1
    done;
    for i = 0 to nr - 1 do
      rowptr.(i + 1) <- rowptr.(i + 1) + rowptr.(i)
    done;
    let fill = Array.copy rowptr in
    let colind = Array.make nnz 0 and rvalues = Array.make nnz 0.0 in
    for j = 0 to t.ncols - 1 do
      for k = t.colptr.(j) to t.colptr.(j + 1) - 1 do
        let i = t.rowind.(k) in
        let at = fill.(i) in
        colind.(at) <- j;
        rvalues.(at) <- t.values.(k);
        fill.(i) <- at + 1
      done
    done;
    { rowptr; colind; rvalues }

  (** [mult t x y] accumulates [A x] into [y] ([y] must be zeroed by the
      caller if a plain product is wanted). *)
  let mult t (x : float array) (y : float array) =
    for j = 0 to t.ncols - 1 do
      let xj = x.(j) in
      if xj <> 0.0 then
        for k = t.colptr.(j) to t.colptr.(j + 1) - 1 do
          y.(t.rowind.(k)) <- y.(t.rowind.(k)) +. (t.values.(k) *. xj)
        done
    done

  (** Dense [ncols]-sized vector of [A^T y]. *)
  let mult_t t (y : float array) =
    Array.init t.ncols (fun j -> dot_col t j y)

  let to_dense t =
    let d = Array.make_matrix t.nrows t.ncols 0.0 in
    for j = 0 to t.ncols - 1 do
      iter_col t j (fun i v -> d.(i).(j) <- d.(i).(j) +. v)
    done;
    d
end
