(** Sparse LU factorization of a simplex basis.

    Left-looking column factorization in the style of Gilbert–Peierls.
    The factorization of the row/column-permuted basis satisfies
    [P (B Pi_c) = L U] where [P] is the pivoting row permutation, [Pi_c]
    a sparsest-first column pre-ordering, [L] unit lower triangular and
    [U] upper triangular.  Row indices of the stored factors are in
    {e pivot order}, which makes the triangular solves straightforward;
    the column permutation is applied inside [solve]/[solve_t] so callers
    never see it.

    When the basis is (numerically) singular the offending columns are
    replaced by unit columns of uncovered rows so that a usable
    factorization is always produced; the caller inspects [replaced] and
    repairs its basis. *)

(** Symbolic data for the Forrest–Tomlin kernels, built lazily: the
    structure-only transpose of [L] ([lsucc] lists, for each pivot
    position [i], the columns [k] with [i ∈ lrows.(k)]).  The
    gather-form transpose solve needs it to know which positions a
    nonzero {e reaches}; the numeric gathers themselves still read the
    original column storage, so sparse and dense solves perform
    identical floating-point operations. *)
type tsym = { lsucc_ptr : int array; lsucc_ind : int array }

type t = {
  m : int;
  p : int array;  (** [p.(k)] = original row chosen as pivot at step [k] *)
  pos : int array;  (** inverse of [p] *)
  cperm : int array;
      (** [cperm.(k)] = input column factored at step [k]; columns are
          pre-ordered sparsest-first to limit fill *)
  lrows : int array array;  (** column [k] of [L] below diagonal, pivot-order rows *)
  lvals : float array array;
  urows : int array array;  (** column [k] of [U] above diagonal, pivot-order rows *)
  uvals : float array array;
  udiag : float array;
  replaced : (int * int) list;
      (** [(col, row)]: basis column [col] was singular and stands replaced
          by the unit column of original row [row]. *)
  mutable tsym : tsym option;
      (** lazily built symbolic data for the Forrest–Tomlin kernels *)
}

let nnz t =
  let s = ref t.m in
  Array.iter (fun a -> s := !s + Array.length a) t.lrows;
  Array.iter (fun a -> s := !s + Array.length a) t.urows;
  !s

(** Relative magnitude threshold for sparsity-driven pivoting: any row
    within this factor of the largest eligible magnitude may be chosen,
    and among those the sparsest row wins.  This is classic threshold
    partial pivoting; with pure magnitude pivoting, LP bases (which are
    nearly triangular but arbitrarily ordered) fill catastrophically. *)
let pivot_threshold = 0.1

let sort_prefix (a : int array) n =
  let rec qsort lo hi =
    if hi - lo >= 12 then begin
      (* median-of-3 pivot *)
      let mid = (lo + hi) / 2 in
      let x = a.(lo) and y = a.(mid) and z = a.(hi) in
      let piv =
        if x < y then if y < z then y else if x < z then z else x
        else if x < z then x
        else if y < z then z
        else y
      in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.(!i) < piv do incr i done;
        while a.(!j) > piv do decr j done;
        if !i <= !j then begin
          let tmp = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- tmp;
          incr i;
          decr j
        end
      done;
      qsort lo !j;
      qsort !i hi
    end
    else
      for k = lo + 1 to hi do
        let v = a.(k) in
        let m = ref k in
        while !m > lo && a.(!m - 1) > v do
          a.(!m) <- a.(!m - 1);
          decr m
        done;
        a.(!m) <- v
      done
  in
  if n > 1 then qsort 0 (n - 1)

(* Stable counting sort of the indices [src] by [key.(j)] into [dst]:
   equal keys keep their order in [src].  Linear in the length plus the
   key range, which for column counts and staircase bands is at most the
   matrix order or the band count. *)
let counting_sort (key : int array) (src : int array) (dst : int array) =
  let n = Array.length src in
  if n > 0 then begin
    let lo = ref max_int and hi = ref min_int in
    for s = 0 to n - 1 do
      let k = key.(src.(s)) in
      if k < !lo then lo := k;
      if k > !hi then hi := k
    done;
    let lo = !lo in
    let start = Array.make (!hi - lo + 1) 0 in
    for s = 0 to n - 1 do
      let b = key.(src.(s)) - lo in
      start.(b) <- start.(b) + 1
    done;
    let acc = ref 0 in
    for b = 0 to Array.length start - 1 do
      let c = start.(b) in
      start.(b) <- !acc;
      acc := !acc + c
    done;
    for s = 0 to n - 1 do
      let j = src.(s) in
      let b = key.(j) - lo in
      dst.(start.(b)) <- j;
      start.(b) <- start.(b) + 1
    done
  end

(** [factor ~m col_iter] factorizes the [m]×[m] matrix whose [k]-th column
    is enumerated by [col_iter k f] (calling [f row value] for each
    entry).

    [?bands] assigns each input column a staircase band (for the event
    LP: the temporal stage of the basic variable).  Columns are then
    pre-ordered band-major with the sparsest-first (Markowitz-style)
    rule breaking ties within a band, which keeps fill confined to the
    staircase blocks of chain-structured bases.  Without [?bands] the
    ordering is exactly the historical sparsest-first one. *)
let factor ?bands ~m col_iter0 =
  let pos = Array.make m (-1) in
  let p = Array.make m (-1) in
  (* static nonzero count per row and column of the input *)
  let rowcount = Array.make m 0 in
  let colcount = Array.make m 0 in
  for k = 0 to m - 1 do
    col_iter0 k (fun i v ->
        if v <> 0.0 then begin
          rowcount.(i) <- rowcount.(i) + 1;
          colcount.(k) <- colcount.(k) + 1
        end)
  done;
  (* factor sparsest columns first: a cheap fill-reducing ordering;
     with bands, band-major first so the staircase structure dominates.
     The order is (band, count, column), built least-significant key
     first by stable counting sorts from the identity. *)
  let cperm = Array.make m 0 in
  (match bands with
  | None -> counting_sort colcount (Array.init m Fun.id) cperm
  | Some (bd : int array) ->
      let by_count = Array.make m 0 in
      counting_sort colcount (Array.init m Fun.id) by_count;
      counting_sort bd by_count cperm);
  let col_iter k f = col_iter0 cperm.(k) f in
  let lrows = Array.make m [||] and lvals = Array.make m [||] in
  let urows = Array.make m [||] and uvals = Array.make m [||] in
  let udiag = Array.make m 0.0 in
  (* Dense workspace over original row indices.  [inwork] is the
     membership mark for [touched]: testing [work.(i) = 0.0] instead
     would re-register rows whose value cancelled exactly and later
     became nonzero again, duplicating factor entries. *)
  let work = Array.make m 0.0 in
  let inwork = Array.make m false in
  let touched = Array.make m 0 in
  (* Workspace for the symbolic elimination step: which previously
     factored columns can reach the current column's support through the
     L dependency DAG.  [rvis] is stamped with the current column [k],
     so no clearing between columns. *)
  let rstack = Array.make m 0 in
  let rreach = Array.make m 0 in
  let rvis = Array.make m (-1) in
  let replaced = ref [] in
  (* L columns are built with original row indices first, then remapped to
     pivot order once all pivots are known. *)
  for k = 0 to m - 1 do
    let ntouch = ref 0 in
    let touch i =
      if not inwork.(i) then begin
        inwork.(i) <- true;
        touched.(!ntouch) <- i;
        incr ntouch
      end
    in
    let scatter i v =
      if v <> 0.0 then begin
        touch i;
        work.(i) <- work.(i) +. v
      end
    in
    col_iter k scatter;
    (* Symbolic elimination step (Gilbert–Peierls): only columns [j < k]
       reachable from the scattered support through the L dependency DAG
       can hold a nonzero at their pivot row, so DFS the closure instead
       of scanning all [k] prior columns.  Processing the reach set in
       ascending pivot order with the same [xj <> 0.0] guard performs
       exactly the floating-point operations of the full scan, in the
       same order. *)
    let nreach = ref 0 in
    for e0 = 0 to !ntouch - 1 do
      let seed = pos.(touched.(e0)) in
      if seed >= 0 && seed < k && rvis.(seed) <> k then begin
        rvis.(seed) <- k;
        rstack.(0) <- seed;
        let top = ref 1 in
        while !top > 0 do
          decr top;
          let u = rstack.(!top) in
          rreach.(!nreach) <- u;
          incr nreach;
          let rs = lrows.(u) in
          for e = 0 to Array.length rs - 1 do
            (* lrows still holds original row indices at this point *)
            let w = pos.(rs.(e)) in
            if w >= 0 && w < k && rvis.(w) <> k then begin
              rvis.(w) <- k;
              rstack.(!top) <- w;
              incr top
            end
          done
        done
      end
    done;
    sort_prefix rreach !nreach;
    for e0 = 0 to !nreach - 1 do
      let j = rreach.(e0) in
      let xj = work.(p.(j)) in
      if xj <> 0.0 then begin
        let rs = lrows.(j) and vs = lvals.(j) in
        for e = 0 to Array.length rs - 1 do
          let i = rs.(e) in
          touch i;
          work.(i) <- work.(i) -. (xj *. vs.(e))
        done
      end
    done;
    (* Threshold pivoting: among not-yet-pivoted rows within
       [pivot_threshold] of the max magnitude, take the sparsest. *)
    let pmag = ref 0.0 in
    for e = 0 to !ntouch - 1 do
      let i = touched.(e) in
      if pos.(i) < 0 then begin
        let a = Float.abs work.(i) in
        if a > !pmag then pmag := a
      end
    done;
    let piv = ref (-1) and pcount = ref max_int in
    if !pmag > 0.0 then begin
      let cutoff = pivot_threshold *. !pmag in
      for e = 0 to !ntouch - 1 do
        let i = touched.(e) in
        if pos.(i) < 0 && Float.abs work.(i) >= cutoff then
          if
            rowcount.(i) < !pcount
            || (rowcount.(i) = !pcount
               && !piv >= 0
               && Float.abs work.(i) > Float.abs work.(!piv))
          then begin
            piv := i;
            pcount := rowcount.(i)
          end
      done
    end;
    if !piv < 0 || !pmag < 1e-12 then begin
      (* Singular column: substitute the unit column of the first
         uncovered row.  Recorded so the caller can repair its basis. *)
      let r = ref 0 in
      while !r < m && pos.(!r) >= 0 do incr r done;
      assert (!r < m);
      p.(k) <- !r;
      pos.(!r) <- k;
      udiag.(k) <- 1.0;
      (* U column: entries of the original column at already-pivoted rows
         are dropped with the column itself. *)
      urows.(k) <- [||];
      uvals.(k) <- [||];
      lrows.(k) <- [||];
      lvals.(k) <- [||];
      replaced := (k, !r) :: !replaced
    end
    else begin
      let r = !piv in
      p.(k) <- r;
      pos.(r) <- k;
      let d = work.(r) in
      udiag.(k) <- d;
      (* Split workspace into U (pivoted rows) and L (unpivoted rows). *)
      let nu = ref 0 and nl = ref 0 in
      for e = 0 to !ntouch - 1 do
        let i = touched.(e) in
        if i <> r && work.(i) <> 0.0 then
          if pos.(i) >= 0 && pos.(i) < k then incr nu else incr nl
      done;
      let ur = Array.make !nu 0 and uv = Array.make !nu 0.0 in
      let lr = Array.make !nl 0 and lv = Array.make !nl 0.0 in
      let iu = ref 0 and il = ref 0 in
      for e = 0 to !ntouch - 1 do
        let i = touched.(e) in
        if i <> r && work.(i) <> 0.0 then
          if pos.(i) >= 0 && pos.(i) < k then begin
            ur.(!iu) <- pos.(i);
            uv.(!iu) <- work.(i);
            incr iu
          end
          else begin
            (* original row index for now; remapped below *)
            lr.(!il) <- i;
            lv.(!il) <- work.(i) /. d;
            incr il
          end
      done;
      urows.(k) <- ur;
      uvals.(k) <- uv;
      lrows.(k) <- lr;
      lvals.(k) <- lv
    end;
    (* Clear workspace. *)
    for e = 0 to !ntouch - 1 do
      work.(touched.(e)) <- 0.0;
      inwork.(touched.(e)) <- false
    done
  done;
  (* Remap L row indices from original rows to pivot order. *)
  for k = 0 to m - 1 do
    let rs = lrows.(k) in
    for e = 0 to Array.length rs - 1 do
      rs.(e) <- pos.(rs.(e))
    done
  done;
  (* [replaced] reports input-column indices *)
  let replaced = List.map (fun (k, r) -> (cperm.(k), r)) !replaced in
  { m; p; pos; cperm; lrows; lvals; urows; uvals; udiag; replaced; tsym = None }

(** [solve t b x] solves [B x = b].  [b] is indexed by original rows,
    [x] by basis position.  Both arrays have length [m]; [b] is not
    modified, [x] is overwritten.  A scratch array [scratch] of length [m]
    must be provided. *)
let solve t ~(b : float array) ~(x : float array) ~(scratch : float array) =
  let m = t.m in
  (* z = L^{-1} P b, computed in pivot order. *)
  for k = 0 to m - 1 do scratch.(k) <- b.(t.p.(k)) done;
  for k = 0 to m - 1 do
    let zk = scratch.(k) in
    if zk <> 0.0 then begin
      let rs = t.lrows.(k) and vs = t.lvals.(k) in
      for e = 0 to Array.length rs - 1 do
        scratch.(rs.(e)) <- scratch.(rs.(e)) -. (vs.(e) *. zk)
      done
    end
  done;
  (* Back substitution with column-stored U; results map back through
     the column pre-ordering. *)
  for k = m - 1 downto 0 do
    let xk = scratch.(k) /. t.udiag.(k) in
    x.(t.cperm.(k)) <- xk;
    if xk <> 0.0 then begin
      let rs = t.urows.(k) and vs = t.uvals.(k) in
      for e = 0 to Array.length rs - 1 do
        scratch.(rs.(e)) <- scratch.(rs.(e)) -. (vs.(e) *. xk)
      done
    end
  done

(** [solve_t t c y] solves [B^T y = c].  [c] is indexed by basis position,
    [y] by original rows. *)
let solve_t t ~(c : float array) ~(y : float array) ~(scratch : float array) =
  let m = t.m in
  (* U^T w = c: forward, gather form; the right-hand side maps through
     the column pre-ordering. *)
  for k = 0 to m - 1 do
    let acc = ref c.(t.cperm.(k)) in
    let rs = t.urows.(k) and vs = t.uvals.(k) in
    for e = 0 to Array.length rs - 1 do
      acc := !acc -. (vs.(e) *. scratch.(rs.(e)))
    done;
    scratch.(k) <- !acc /. t.udiag.(k)
  done;
  (* L^T v = w: backward, gather form (unit diagonal). *)
  for k = m - 1 downto 0 do
    let acc = ref scratch.(k) in
    let rs = t.lrows.(k) and vs = t.lvals.(k) in
    for e = 0 to Array.length rs - 1 do
      acc := !acc -. (vs.(e) *. scratch.(rs.(e)))
    done;
    scratch.(k) <- !acc
  done;
  for k = 0 to m - 1 do y.(t.p.(k)) <- scratch.(k) done

(* ------------------------------------------------------------------ *)
(* Hypersparse kernel support (Gilbert–Peierls reachability)            *)
(* ------------------------------------------------------------------ *)

(* The structure-only transpose of [L]: [lsucc.(i)] = columns [k] with
   [i ∈ lrows.(k)], i.e. the positions a nonzero at [i] reaches in the
   L^T backward solve.  Only the sparse BTRAN reads it. *)
let build_tsym t =
  let m = t.m in
  let transpose (cols : int array array) =
    let ptr = Array.make (m + 1) 0 in
    for k = 0 to m - 1 do
      let rs = cols.(k) in
      for e = 0 to Array.length rs - 1 do
        ptr.(rs.(e) + 1) <- ptr.(rs.(e) + 1) + 1
      done
    done;
    for i = 0 to m - 1 do
      ptr.(i + 1) <- ptr.(i + 1) + ptr.(i)
    done;
    let ind = Array.make ptr.(m) 0 in
    let fill = Array.copy ptr in
    for k = 0 to m - 1 do
      let rs = cols.(k) in
      for e = 0 to Array.length rs - 1 do
        let i = rs.(e) in
        ind.(fill.(i)) <- k;
        fill.(i) <- fill.(i) + 1
      done
    done;
    (ptr, ind)
  in
  let lsucc_ptr, lsucc_ind = transpose t.lrows in
  { lsucc_ptr; lsucc_ind }

let tsym t =
  match t.tsym with
  | Some s -> s
  | None ->
      let s = build_tsym t in
      t.tsym <- Some s;
      s

(** Workspace for the Forrest–Tomlin sparse solves: a timestamped value
    accumulator (so the per-solve reset is O(touched), never O(m)), reach
    lists, a DFS stack with its own visit stamps, and dense scratch for
    the fallback path.  One [swork] serves any number of factorizations
    of the same dimension; it is single-owner mutable state (one per
    solver call). *)
type swork = {
  sv : float array;  (** stamped values *)
  sstamp : int array;
  mutable sepoch : int;
  r1 : int array;  (** first-stage reach list *)
  r2 : int array;  (** second-stage reach list *)
  dstack : int array;
  vis : int array;
  mutable vepoch : int;
  db : float array;  (** dense RHS for the fallback, kept all-zero *)
  ds : float array;  (** dense scratch for the fallback *)
}

let make_swork m =
  {
    sv = Array.make m 0.0;
    sstamp = Array.make m (-1);
    sepoch = 0;
    r1 = Array.make m 0;
    r2 = Array.make m 0;
    dstack = Array.make m 0;
    vis = Array.make m (-1);
    vepoch = 0;
    db = Array.make m 0.0;
    ds = Array.make m 0.0;
  }

(* Sparse triangular solves stay worthwhile until the result fills in;
   past a quarter of the dimension the dense sweep's streaming access
   wins and the symbolic pass is pure overhead. *)
let reach_cutoff m = 8 + (m / 4)

(* Reachability over [adj] (array-of-arrays adjacency) from the seeds
   already placed in [out.(0 .. nseeds-1)].  Grows [out] into the full
   closure and returns its size, or [-1] once it exceeds [cutoff]
   (caller falls back to the dense kernel).  A fresh visit epoch is used
   per call; seeds must be distinct. *)
let reach_arr sw (adj : int array array) ~nseeds ~(out : int array) ~cutoff =
  sw.vepoch <- sw.vepoch + 1;
  let ep = sw.vepoch in
  let cnt = ref nseeds and top = ref 0 and over = ref false in
  for s = 0 to nseeds - 1 do
    sw.vis.(out.(s)) <- ep;
    sw.dstack.(s) <- out.(s)
  done;
  top := nseeds;
  while !top > 0 && not !over do
    decr top;
    let k = sw.dstack.(!top) in
    let a = adj.(k) in
    for e = 0 to Array.length a - 1 do
      let i = a.(e) in
      if sw.vis.(i) <> ep then begin
        sw.vis.(i) <- ep;
        if !cnt >= cutoff then over := true
        else begin
          out.(!cnt) <- i;
          sw.dstack.(!top) <- i;
          incr top;
          incr cnt
        end
      end
    done
  done;
  if !over then -1 else !cnt

(* Same, over a (ptr, ind) compressed adjacency. *)
let reach_ptr sw (ptr : int array) (ind : int array) ~nseeds ~(out : int array)
    ~cutoff =
  sw.vepoch <- sw.vepoch + 1;
  let ep = sw.vepoch in
  let cnt = ref nseeds and top = ref 0 and over = ref false in
  for s = 0 to nseeds - 1 do
    sw.vis.(out.(s)) <- ep;
    sw.dstack.(s) <- out.(s)
  done;
  top := nseeds;
  while !top > 0 && not !over do
    decr top;
    let k = sw.dstack.(!top) in
    for e = ptr.(k) to ptr.(k + 1) - 1 do
      let i = ind.(e) in
      if sw.vis.(i) <> ep then begin
        sw.vis.(i) <- ep;
        if !cnt >= cutoff then over := true
        else begin
          out.(!cnt) <- i;
          sw.dstack.(!top) <- i;
          incr top;
          incr cnt
        end
      end
    done
  done;
  if !over then -1 else !cnt

(* ------------------------------------------------------------------ *)
(* Bordered basis updates                                              *)
(* ------------------------------------------------------------------ *)

(* Shrinking a factorized basis B by one row together with one basis
   column reduces to a triangular solve against the existing factors:
   the unit solves below expose, position by position, the pivot
   magnitude available to each candidate pairing of a deletion.
   Lp.Edit uses these to map a basis across structural edits; a tiny
   pivot means the paired update would be singular and the caller falls
   back to a cold solve. *)

let unit_ftran t ~row =
  let x = Array.make t.m 0.0 and b = Array.make t.m 0.0 in
  let scratch = Array.make t.m 0.0 in
  b.(row) <- 1.0;
  solve t ~b ~x ~scratch;
  x

let unit_btran t ~pos =
  let y = Array.make t.m 0.0 and c = Array.make t.m 0.0 in
  let scratch = Array.make t.m 0.0 in
  c.(pos) <- 1.0;
  solve_t t ~c ~y ~scratch;
  y

(* ------------------------------------------------------------------ *)
(* Forrest–Tomlin updates                                              *)
(* ------------------------------------------------------------------ *)

(** Forrest–Tomlin update of a factorization: replacing basis column
    [r] by an entering column [a] turns column [cpos r] of [U] into the
    spike [s = E_n ⋯ E_1 L⁻¹ P a]; the spiked slot is cyclically
    permuted to the border of the active order, and the old row of [U]
    (now below the diagonal) is eliminated against the remaining rows.
    The row operations are recorded as a {e row eta}
    [E = I − Σ mu_c e_t e_cᵀ] applied between [L] and [U] in every
    subsequent solve; unlike product-form column etas they create no
    fill outside the eliminated row, so [U] stays sparse and banded on
    staircase bases.

    [L] (and the slot ↔ basis-position binding [cperm]) stay frozen;
    [U] becomes dynamic: stored both column-wise (for the solves, so
    that with zero updates the kernels replay {!solve}/{!solve_t} bit
    for bit) and row-wise (for the border elimination).  Entry values
    never change after insertion, so the two copies stay consistent by
    construction.  The active elimination order is a doubly linked list
    over slots with monotone integer keys ([okey]); moving a slot to
    the border is O(1).

    The numeric loops of the solves index without bounds checks
    ({!Unchecked}): every index they use is a slot, a permutation entry
    or a factor index whose range [of_factor] checks as the
    factorization enters, and that [update] keeps in range; the kernels
    check the vectors and seed indices callers pass.  [validate]
    re-checks the whole structure. *)
module Ft = struct
  open Unchecked

  (* Reusable m-sized workspace: one per solver, survives
     refactorizations.  Single-owner mutable state, like [swork]. *)
  type wsp = {
    sw : swork;
    okey : int array;  (** current elimination order key per slot *)
    onext : int array;
    oprev : int array;
    spike : float array;
        (** retained post-L post-eta intermediate of the last entering
            column FTRAN — the Forrest–Tomlin spike; kept-zero outside
            its support *)
    spike_ind : int array;
    mutable spike_n : int;  (** -1 = whole array valid (dense) *)
    acc : float array;  (** border-row elimination accumulator *)
    accst : int array;
    mutable accep : int;
    heap : int array;  (** pending border-row columns, min-heap on okey *)
    hseen : int array;
    mutable hepoch : int;
  }

  let make_wsp m =
    {
      sw = make_swork m;
      okey = Array.make m 0;
      onext = Array.make m (-1);
      oprev = Array.make m (-1);
      spike = Array.make m 0.0;
      spike_ind = Array.make m 0;
      spike_n = 0;
      acc = Array.make m 0.0;
      accst = Array.make m (-1);
      accep = 0;
      heap = Array.make m 0;
      hseen = Array.make m (-1);
      hepoch = 0;
    }

  type nonrec u = {
    base : t;  (** frozen [L], row/column permutations, initial [U] *)
    w : wsp;
    cpos : int array;  (** inverse of [base.cperm] *)
    ucol_n : int array;
    ucol_i : int array array;  (** dynamic column [k] of U: row slots *)
    ucol_v : float array array;
    urow_n : int array;
    urow_j : int array array;  (** dynamic row [k] of U: column slots *)
    urow_v : float array array;
    d : float array;  (** current U diagonal per slot *)
    mutable ohead : int;
    mutable otail : int;
    mutable omax : int;
    mutable ne : int;  (** number of row etas *)
    mutable re_t : int array;  (** eliminated slot per eta *)
    mutable re_ptr : int array;  (** [ne+1] offsets into [re_j]/[re_mu] *)
    mutable re_j : int array;
    mutable re_mu : float array;
    mutable re_len : int;
    mutable unnz : int;  (** current U nonzeros incl. diagonal *)
    lnnz : int;
    nnz0 : int;  (** factor nonzeros at [of_factor] time *)
    mutable nupd : int;
    mutable fill_hwm : float;  (** high-water fill ratio since of_factor *)
  }

  let push_entry (ni : int array) (ii : int array array)
      (vv : float array array) s i v =
    let n = ni.(s) in
    if n >= Array.length ii.(s) then begin
      let cap = Array.length ii.(s) in
      let nc = if cap = 0 then 4 else cap * 2 in
      let i2 = Array.make nc 0 and v2 = Array.make nc 0.0 in
      Array.blit ii.(s) 0 i2 0 n;
      Array.blit vv.(s) 0 v2 0 n;
      ii.(s) <- i2;
      vv.(s) <- v2
    end;
    ii.(s).(n) <- i;
    vv.(s).(n) <- v;
    ni.(s) <- n + 1

  (* Remove the entry with index [i] from slot [s] (swap-with-last; the
     in-slot entry order is free, both copies are read in stored order
     by sparse and dense kernels alike). *)
  let remove_entry (ni : int array) (ii : int array array)
      (vv : float array array) s i =
    let n = ni.(s) in
    let a = ii.(s) in
    let k = ref (-1) in
    for e = 0 to n - 1 do
      if a.(e) = i then k := e
    done;
    if !k >= 0 then begin
      let last = n - 1 in
      a.(!k) <- a.(last);
      vv.(s).(!k) <- vv.(s).(last);
      ni.(s) <- last
    end

  (* --- structure checks ------------------------------------------- *)

  exception Broken of string

  let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt

  (* The frozen factorization as the solves index it: the row and column
     permutations inverted by [pos] and [cpos], L strictly below and U
     strictly above the diagonal in pivot order, values beside indices. *)
  let check_base (base : t) (cpos : int array) =
    let m = base.m in
    List.iter
      (fun (what, n) -> if n <> m then broken "%s has length %d, not %d" what n m)
      [
        ("p", Array.length base.p);
        ("pos", Array.length base.pos);
        ("cperm", Array.length base.cperm);
        ("cpos", Array.length cpos);
        ("udiag", Array.length base.udiag);
        ("lrows", Array.length base.lrows);
        ("lvals", Array.length base.lvals);
        ("urows", Array.length base.urows);
        ("uvals", Array.length base.uvals);
      ];
    for k = 0 to m - 1 do
      let i = base.p.(k) in
      if i < 0 || i >= m || base.pos.(i) <> k then
        broken "row permutation: pos does not invert p at step %d" k;
      let c = base.cperm.(k) in
      if c < 0 || c >= m || cpos.(c) <> k then
        broken "column permutation: cpos does not invert cperm at step %d" k;
      let rs = base.lrows.(k) in
      if Array.length base.lvals.(k) <> Array.length rs then
        broken "L column %d: %d values for %d indices" k
          (Array.length base.lvals.(k)) (Array.length rs);
      for e = 0 to Array.length rs - 1 do
        if rs.(e) <= k || rs.(e) >= m then
          broken "L column %d holds index %d" k rs.(e)
      done;
      let rs = base.urows.(k) in
      if Array.length base.uvals.(k) <> Array.length rs then
        broken "U column %d: %d values for %d indices" k
          (Array.length base.uvals.(k)) (Array.length rs);
      for e = 0 to Array.length rs - 1 do
        if rs.(e) < 0 || rs.(e) >= k then
          broken "U column %d holds index %d" k rs.(e)
      done
    done

  (* The updatable state: both copies of the dynamic U (indices in range
     and earlier in the active order than their column), the row-eta
     file, the kept spike's support, and an active order that visits
     each slot once in increasing key order.  The per-slot arrays are
     made [m] long with the workspace and the wrapper ([of_factor]
     checks the workspace's dimension); only the inner U rows and
     columns and the eta file grow. *)
  let check_dynamic u =
    let m = u.base.m and w = u.w in
    let side ~by_col (ni : int array) (ii : int array array)
        (vv : float array array) =
      let what = if by_col then "column" else "row" in
      let total = ref 0 in
      for s = 0 to m - 1 do
        let n = ni.(s) in
        if n < 0 || n > Array.length ii.(s) || n > Array.length vv.(s) then
          broken "U %s %d: %d entries exceed the storage" what s n;
        for e = 0 to n - 1 do
          let i = ii.(s).(e) in
          if i < 0 || i >= m then broken "U %s %d holds index %d" what s i;
          let row, col = if by_col then (i, s) else (s, i) in
          if w.okey.(row) >= w.okey.(col) then
            broken "U entry (%d, %d) is not above the diagonal" row col
        done;
        total := !total + n
      done;
      !total
    in
    let ncol = side ~by_col:true u.ucol_n u.ucol_i u.ucol_v in
    let nrow = side ~by_col:false u.urow_n u.urow_j u.urow_v in
    if ncol <> nrow || u.unnz <> m + ncol then
      broken "U holds %d entries by column, %d by row, %d counted" ncol nrow
        (u.unnz - m);
    if u.ne < 0 || u.ne > Array.length u.re_t || u.ne >= Array.length u.re_ptr
    then broken "%d row etas overflow their storage" u.ne;
    if u.re_ptr.(0) <> 0 then broken "row-eta offsets start at %d" u.re_ptr.(0);
    for e = 0 to u.ne - 1 do
      let t = u.re_t.(e) in
      if t < 0 || t >= m then broken "row eta %d eliminates slot %d" e t;
      let lo = u.re_ptr.(e) and hi = u.re_ptr.(e + 1) in
      if hi < lo || hi > Array.length u.re_j || hi > Array.length u.re_mu then
        broken "row eta %d spans [%d, %d)" e lo hi;
      for q = lo to hi - 1 do
        let j = u.re_j.(q) in
        if j < 0 || j >= m then broken "row eta %d holds index %d" e j
      done
    done;
    if u.re_ptr.(u.ne) <> u.re_len then
      broken "row etas end at %d, file length %d" u.re_ptr.(u.ne) u.re_len;
    if w.spike_n > m then broken "spike support of %d" w.spike_n;
    for e = 0 to w.spike_n - 1 do
      let i = w.spike_ind.(e) in
      if i < 0 || i >= m then broken "spike support holds index %d" i
    done;
    let seen = Array.make m false in
    let k = ref u.ohead and prev = ref (-1) and count = ref 0 in
    while !k >= 0 do
      let s = !k in
      if s >= m || seen.(s) then broken "active order revisits slot %d" s;
      seen.(s) <- true;
      if w.oprev.(s) <> !prev then
        broken "active order: slot %d follows %d, linked back to %d" s !prev
          w.oprev.(s);
      if !prev >= 0 && w.okey.(!prev) >= w.okey.(s) then
        broken "active order keys do not increase at slot %d" s;
      incr count;
      prev := s;
      k := w.onext.(s)
    done;
    if !k <> -1 || !count <> m || u.otail <> !prev then
      broken "active order visits %d of %d slots, ending at %d (tail %d)" !count
        m !prev u.otail

  let of_factor (w : wsp) (base : t) =
    let m = base.m in
    if Array.length w.okey <> m then
      invalid_arg
        (Printf.sprintf
           "Lu.Ft.of_factor: workspace of dimension %d for a factorization of \
            dimension %d"
           (Array.length w.okey) m);
    (* Invert [cperm]; an entry out of range leaves a [-1] that
       [check_base] reports. *)
    let cpos = Array.make m (-1) in
    Array.iteri (fun k c -> if c >= 0 && c < m then cpos.(c) <- k) base.cperm;
    (try check_base base cpos
     with Broken s -> invalid_arg ("Lu.Ft.of_factor: " ^ s));
    let ucol_n = Array.make m 0
    and ucol_i = Array.make m [||]
    and ucol_v = Array.make m [||] in
    (* [urow_n] counts each row's entries first, so every row is
       allocated once at its size *)
    let urow_n = Array.make m 0 in
    let unnz = ref m and lnnz = ref 0 in
    for k = 0 to m - 1 do
      let rs = base.urows.(k) in
      let n = Array.length rs in
      ucol_n.(k) <- n;
      ucol_i.(k) <- Array.copy rs;
      ucol_v.(k) <- Array.copy base.uvals.(k);
      for e = 0 to n - 1 do
        urow_n.(rs.(e)) <- urow_n.(rs.(e)) + 1
      done;
      unnz := !unnz + n;
      lnnz := !lnnz + Array.length base.lrows.(k)
    done;
    let urow_j = Array.make m [||] and urow_v = Array.make m [||] in
    for r = 0 to m - 1 do
      let n = urow_n.(r) in
      if n > 0 then begin
        urow_j.(r) <- Array.make n 0;
        urow_v.(r) <- Array.make n 0.0
      end
    done;
    (* row-wise copy: columns visited ascending, so each row starts
       sorted by column slot *)
    let fill = Array.make m 0 in
    for k = 0 to m - 1 do
      let rs = base.urows.(k) and vs = base.uvals.(k) in
      for e = 0 to Array.length rs - 1 do
        let r = rs.(e) in
        urow_j.(r).(fill.(r)) <- k;
        urow_v.(r).(fill.(r)) <- vs.(e);
        fill.(r) <- fill.(r) + 1
      done
    done;
    for k = 0 to m - 1 do
      w.okey.(k) <- k;
      w.onext.(k) <- (if k = m - 1 then -1 else k + 1);
      w.oprev.(k) <- k - 1
    done;
    (* previous generation's spike support is stale *)
    (if w.spike_n < 0 then Array.fill w.spike 0 m 0.0
     else
       for e = 0 to w.spike_n - 1 do
         w.spike.(w.spike_ind.(e)) <- 0.0
       done);
    w.spike_n <- 0;
    {
      base;
      w;
      cpos;
      ucol_n;
      ucol_i;
      ucol_v;
      urow_n;
      urow_j;
      urow_v;
      d = Array.copy base.udiag;
      ohead = (if m = 0 then -1 else 0);
      otail = m - 1;
      omax = m - 1;
      ne = 0;
      re_t = Array.make 16 0;
      re_ptr = Array.make 17 0;
      re_j = Array.make 64 0;
      re_mu = Array.make 64 0.0;
      re_len = 0;
      unnz = !unnz;
      lnnz = !lnnz;
      nnz0 = !unnz + !lnnz;
      nupd = 0;
      fill_hwm = 1.0;
    }

  let fill_ratio u =
    if u.nnz0 = 0 then 1.0
    else
      float_of_int (u.lnnz + u.unnz + u.re_len) /. float_of_int u.nnz0

  let fill_hwm u = u.fill_hwm
  let nupdates u = u.nupd

  let validate u =
    match
      check_base u.base u.cpos;
      check_dynamic u
    with
    | () -> Ok ()
    | exception Broken s -> Error s

  (* --- solves ----------------------------------------------------- *)

  (* Entry checks of the public solves: every vector is [m] long, and
     the [n] seed indices of a sparse right-hand side are distinct and
     in [0, m) (marked on the visit stamps, which every reach renews). *)
  let check_vec fn what n m =
    if n <> m then
      invalid_arg
        (Printf.sprintf "Lu.Ft.%s: %s has length %d, expected %d" fn what n m)

  let check_seeds fn sw m (idx : int array) n =
    if n < 0 || n > Array.length idx then
      invalid_arg
        (Printf.sprintf "Lu.Ft.%s: %d seeds in an index array of length %d" fn
           n (Array.length idx));
    sw.vepoch <- sw.vepoch + 1;
    let ep = sw.vepoch in
    for s = 0 to n - 1 do
      let i = idx.(s) in
      if i < 0 || i >= m || sw.vis.(i) = ep then
        invalid_arg
          (Printf.sprintf "Lu.Ft.%s: seed index %d out of range or repeated" fn
             i);
      sw.vis.(i) <- ep
    done

  (* Shared by the dense and sparse FTRAN: apply the row etas, oldest
     first, to the post-L intermediate held in [z] (dense, m long). *)
  let apply_row_etas u (z : float array) =
    for e = 0 to u.ne - 1 do
      let t = u.re_t.!(e) in
      let acc = ref z.!(t) in
      for q = u.re_ptr.!(e) to u.re_ptr.!(e + 1) - 1 do
        acc := !acc -. (u.re_mu.!(q) *. z.!(u.re_j.!(q)))
      done;
      z.!(t) <- !acc
    done

  (** [ftran_d u ~keep_spike ~b ~x ~scratch] solves [B x = b] against
      the updated factors; same indexing contract as {!solve}.  With
      zero updates it performs exactly the operations of {!solve}.
      [keep_spike] retains the post-L post-eta intermediate for a
      subsequent {!update} of the column just FTRANed. *)
  let ftran_d u ~keep_spike ~(b : float array) ~(x : float array)
      ~(scratch : float array) =
    let base = u.base in
    let m = base.m in
    check_vec "ftran_d" "b" (Array.length b) m;
    check_vec "ftran_d" "x" (Array.length x) m;
    check_vec "ftran_d" "scratch" (Array.length scratch) m;
    for k = 0 to m - 1 do
      scratch.!(k) <- b.!(base.p.!(k))
    done;
    for k = 0 to m - 1 do
      let zk = scratch.!(k) in
      if zk <> 0.0 then begin
        let rs = base.lrows.!(k) and vs = base.lvals.!(k) in
        for e = 0 to Array.length rs - 1 do
          scratch.!(rs.!(e)) <- scratch.!(rs.!(e)) -. (vs.!(e) *. zk)
        done
      end
    done;
    apply_row_etas u scratch;
    if keep_spike then begin
      Array.blit scratch 0 u.w.spike 0 m;
      u.w.spike_n <- -1
    end;
    (* back substitution over the dynamic U, border-to-head order *)
    let k = ref u.otail in
    while !k >= 0 do
      let s = !k in
      let xk = scratch.!(s) /. u.d.!(s) in
      x.!(base.cperm.!(s)) <- xk;
      if xk <> 0.0 then begin
        let n = u.ucol_n.!(s) in
        let rs = u.ucol_i.!(s) and vs = u.ucol_v.!(s) in
        for e = 0 to n - 1 do
          scratch.!(rs.!(e)) <- scratch.!(rs.!(e)) -. (vs.!(e) *. xk)
        done
      end;
      k := u.w.oprev.!(s)
    done

  (** [btran_d u ~c ~y ~scratch] solves [Bᵀ y = c]; same indexing
      contract as {!solve_t}, bitwise-identical to it at zero
      updates. *)
  let btran_d u ~(c : float array) ~(y : float array)
      ~(scratch : float array) =
    let base = u.base in
    let m = base.m in
    check_vec "btran_d" "c" (Array.length c) m;
    check_vec "btran_d" "y" (Array.length y) m;
    check_vec "btran_d" "scratch" (Array.length scratch) m;
    (* Uᵀ forward, active order, gather over dynamic columns *)
    let k = ref u.ohead in
    while !k >= 0 do
      let s = !k in
      let acc = ref c.!(base.cperm.!(s)) in
      let n = u.ucol_n.!(s) in
      let rs = u.ucol_i.!(s) and vs = u.ucol_v.!(s) in
      for e = 0 to n - 1 do
        acc := !acc -. (vs.!(e) *. scratch.!(rs.!(e)))
      done;
      scratch.!(s) <- !acc /. u.d.!(s);
      k := u.w.onext.!(s)
    done;
    (* row-eta transposes, newest first: y_c -= mu_c · y_t *)
    for e = u.ne - 1 downto 0 do
      let t = u.re_t.!(e) in
      let yt = scratch.!(t) in
      if yt <> 0.0 then
        for q = u.re_ptr.!(e) to u.re_ptr.!(e + 1) - 1 do
          scratch.!(u.re_j.!(q)) <-
            scratch.!(u.re_j.!(q)) -. (u.re_mu.!(q) *. yt)
        done
    done;
    (* Lᵀ backward, static slot order *)
    for k = m - 1 downto 0 do
      let acc = ref scratch.!(k) in
      let rs = base.lrows.!(k) and vs = base.lvals.!(k) in
      for e = 0 to Array.length rs - 1 do
        acc := !acc -. (vs.!(e) *. scratch.!(rs.!(e)))
      done;
      scratch.!(k) <- !acc
    done;
    for k = 0 to m - 1 do
      y.!(base.p.!(k)) <- scratch.!(k)
    done

  (* Reachability like [reach_arr], but over ragged dynamic adjacency
     with explicit lengths. *)
  let reach_dyn sw (ni : int array) (ii : int array array) ~nseeds
      ~(out : int array) ~cutoff =
    sw.vepoch <- sw.vepoch + 1;
    let ep = sw.vepoch in
    let cnt = ref nseeds and top = ref 0 and over = ref false in
    for s = 0 to nseeds - 1 do
      sw.vis.(out.(s)) <- ep;
      sw.dstack.(s) <- out.(s)
    done;
    top := nseeds;
    while !top > 0 && not !over do
      decr top;
      let k = sw.dstack.(!top) in
      let a = ii.(k) and n = ni.(k) in
      for e = 0 to n - 1 do
        let i = a.(e) in
        if sw.vis.(i) <> ep then begin
          sw.vis.(i) <- ep;
          if !cnt >= cutoff then over := true
          else begin
            out.(!cnt) <- i;
            sw.dstack.(!top) <- i;
            incr top;
            incr cnt
          end
        end
      done
    done;
    if !over then -1 else !cnt

  (* Sort the first [n] entries of [a] ascending by [key.(·)], then used
     forward (ascending) or backward (descending) by the numeric
     passes.  Insertion sort: reach sets are small by construction. *)
  let sort_prefix_key (a : int array) n (key : int array) =
    for k = 1 to n - 1 do
      let v = a.(k) in
      let kv = key.(v) in
      let m = ref k in
      while !m > 0 && key.(a.(!m - 1)) > kv do
        a.(!m) <- a.(!m - 1);
        decr m
      done;
      a.(!m) <- v
    done

  (** Sparse-RHS FTRAN against the updated factors: [b] is dense with
      nonzeros exactly at the [nb] distinct original-row indices
      [bidx.(0 .. nb-1)].  Returns [-1] when the result filled in past
      the density cutoff (the dense kernel ran, all of [x] is valid),
      else the support size [n]: [xind.(0 .. n-1)] lists, sorted, the
      basis positions of all possibly-nonzero entries, and [x] is written
      only there.  Callers keep [x] all-zero outside the support between
      calls.  The numerics match {!ftran_d} bit for bit: the sparse path
      performs the same operations in the same order and only skips
      positions the dense sweep computes as (signed) zero. *)
  let ftran_sp u ~keep_spike ~nb ~(bidx : int array) ~(b : float array)
      ~(x : float array) ~(xind : int array) =
    let base = u.base in
    let m = base.m in
    let w = u.w in
    let sw = w.sw in
    check_vec "ftran_sp" "b" (Array.length b) m;
    check_vec "ftran_sp" "x" (Array.length x) m;
    check_vec "ftran_sp" "xind" (Array.length xind) m;
    check_seeds "ftran_sp" sw m bidx nb;
    let cutoff = reach_cutoff m in
    let dense () =
      for s = 0 to nb - 1 do
        sw.db.(bidx.(s)) <- b.(bidx.(s))
      done;
      ftran_d u ~keep_spike ~b:sw.db ~x ~scratch:sw.ds;
      for s = 0 to nb - 1 do
        sw.db.(bidx.(s)) <- 0.0
      done;
      -1
    in
    if nb >= cutoff then dense ()
    else begin
      for s = 0 to nb - 1 do
        sw.r1.(s) <- base.pos.(bidx.(s))
      done;
      let n1 = reach_arr sw base.lrows ~nseeds:nb ~out:sw.r1 ~cutoff in
      if n1 < 0 then dense ()
      else begin
        sort_prefix sw.r1 n1;
        sw.sepoch <- sw.sepoch + 1;
        let ep = sw.sepoch in
        for e = 0 to n1 - 1 do
          let k = sw.r1.!(e) in
          sw.sv.!(k) <- 0.0;
          sw.sstamp.!(k) <- ep
        done;
        for s = 0 to nb - 1 do
          let i = bidx.!(s) in
          sw.sv.!(base.pos.!(i)) <- b.!(i)
        done;
        (* z = L⁻¹ P b over the reach, ascending slots *)
        for e = 0 to n1 - 1 do
          let k = sw.r1.!(e) in
          let zk = sw.sv.!(k) in
          if zk <> 0.0 then begin
            let rs = base.lrows.!(k) and vs = base.lvals.!(k) in
            for q = 0 to Array.length rs - 1 do
              sw.sv.!(rs.!(q)) <- sw.sv.!(rs.!(q)) -. (vs.!(q) *. zk)
            done
          end
        done;
        (* row etas, oldest first; the support grows with each
           activated target slot.  A gather runs exactly when the dense
           sweep would combine a nonzero — skipped ones only reproduce
           (signed) zeros. *)
        Array.blit sw.r1 0 sw.r2 0 n1;
        let nsup = ref n1 in
        for e = 0 to u.ne - 1 do
          let t = u.re_t.!(e) in
          let tmem = sw.sstamp.!(t) = ep in
          let need = ref tmem in
          (if not !need then
             let q = ref u.re_ptr.!(e) in
             let stop = u.re_ptr.!(e + 1) in
             while (not !need) && !q < stop do
               let j = u.re_j.!(!q) in
               if sw.sstamp.!(j) = ep && sw.sv.!(j) <> 0.0 then need := true;
               incr q
             done);
          if !need then begin
            if not tmem then begin
              sw.sv.!(t) <- 0.0;
              sw.sstamp.!(t) <- ep;
              sw.r2.!(!nsup) <- t;
              incr nsup
            end;
            let acc = ref sw.sv.!(t) in
            for q = u.re_ptr.!(e) to u.re_ptr.!(e + 1) - 1 do
              let j = u.re_j.!(q) in
              let zj = if sw.sstamp.!(j) = ep then sw.sv.!(j) else 0.0 in
              acc := !acc -. (u.re_mu.!(q) *. zj)
            done;
            sw.sv.!(t) <- !acc
          end
        done;
        if keep_spike then begin
          (if w.spike_n < 0 then Array.fill w.spike 0 m 0.0
           else
             for e = 0 to w.spike_n - 1 do
               w.spike.!(w.spike_ind.!(e)) <- 0.0
             done);
          for e = 0 to !nsup - 1 do
            let k = sw.r2.!(e) in
            w.spike.!(k) <- sw.sv.!(k);
            w.spike_ind.!(e) <- k
          done;
          w.spike_n <- !nsup
        end;
        (* closure under the dynamic U columns *)
        let n2 = reach_dyn sw u.ucol_n u.ucol_i ~nseeds:!nsup ~out:sw.r2 ~cutoff in
        if n2 < 0 then dense ()
        else begin
          for e = !nsup to n2 - 1 do
            let k = sw.r2.!(e) in
            sw.sv.!(k) <- 0.0;
            sw.sstamp.!(k) <- ep
          done;
          sort_prefix_key sw.r2 n2 w.okey;
          (* back substitution, descending active order *)
          for e = n2 - 1 downto 0 do
            let k = sw.r2.!(e) in
            let xk = sw.sv.!(k) /. u.d.!(k) in
            x.!(base.cperm.!(k)) <- xk;
            xind.!(e) <- base.cperm.!(k);
            if xk <> 0.0 then begin
              let n = u.ucol_n.!(k) in
              let rs = u.ucol_i.!(k) and vs = u.ucol_v.!(k) in
              for q = 0 to n - 1 do
                sw.sv.!(rs.!(q)) <- sw.sv.!(rs.!(q)) -. (vs.!(q) *. xk)
              done
            end
          done;
          sort_prefix xind n2;
          n2
        end
      end
    end

  (** Sparse-RHS BTRAN against the updated factors, with the contract of
      {!ftran_sp}: [c] has nonzeros exactly at basis positions
      [cidx.(0 .. nc-1)], and [yind] lists the original-row indices of
      [y]'s possibly-nonzero entries. *)
  let btran_sp u ~nc ~(cidx : int array) ~(c : float array)
      ~(y : float array) ~(yind : int array) =
    let base = u.base in
    let m = base.m in
    let w = u.w in
    let sw = w.sw in
    check_vec "btran_sp" "c" (Array.length c) m;
    check_vec "btran_sp" "y" (Array.length y) m;
    check_vec "btran_sp" "yind" (Array.length yind) m;
    check_seeds "btran_sp" sw m cidx nc;
    let cutoff = reach_cutoff m in
    let dense () =
      for s = 0 to nc - 1 do
        sw.db.(cidx.(s)) <- c.(cidx.(s))
      done;
      btran_d u ~c:sw.db ~y ~scratch:sw.ds;
      for s = 0 to nc - 1 do
        sw.db.(cidx.(s)) <- 0.0
      done;
      -1
    in
    if nc >= cutoff then dense ()
    else begin
      (* Uᵀ reach: a nonzero at slot i spreads to every column k whose
         dynamic column holds row i — i.e. along the dynamic rows. *)
      for s = 0 to nc - 1 do
        sw.r1.(s) <- u.cpos.(cidx.(s))
      done;
      let n1 = reach_dyn sw u.urow_n u.urow_j ~nseeds:nc ~out:sw.r1 ~cutoff in
      if n1 < 0 then dense ()
      else begin
        sort_prefix_key sw.r1 n1 w.okey;
        sw.sepoch <- sw.sepoch + 1;
        let ep = sw.sepoch in
        for e = 0 to n1 - 1 do
          let k = sw.r1.!(e) in
          sw.sv.!(k) <- 0.0;
          sw.sstamp.!(k) <- ep
        done;
        for s = 0 to nc - 1 do
          let j = cidx.!(s) in
          sw.sv.!(u.cpos.!(j)) <- c.!(j)
        done;
        (* Uᵀ w = c: forward gather, ascending active order *)
        for e = 0 to n1 - 1 do
          let k = sw.r1.!(e) in
          let acc = ref sw.sv.!(k) in
          let n = u.ucol_n.!(k) in
          let rs = u.ucol_i.!(k) and vs = u.ucol_v.!(k) in
          for q = 0 to n - 1 do
            let i = rs.!(q) in
            let wi = if sw.sstamp.!(i) = ep then sw.sv.!(i) else 0.0 in
            acc := !acc -. (vs.!(q) *. wi)
          done;
          sw.sv.!(k) <- !acc /. u.d.!(k)
        done;
        (* row-eta transposes, newest first (scatter) *)
        Array.blit sw.r1 0 sw.r2 0 n1;
        let nsup = ref n1 in
        for e = u.ne - 1 downto 0 do
          let t = u.re_t.!(e) in
          if sw.sstamp.!(t) = ep && sw.sv.!(t) <> 0.0 then begin
            let yt = sw.sv.!(t) in
            for q = u.re_ptr.!(e) to u.re_ptr.!(e + 1) - 1 do
              let j = u.re_j.!(q) in
              if sw.sstamp.!(j) <> ep then begin
                sw.sv.!(j) <- 0.0;
                sw.sstamp.!(j) <- ep;
                sw.r2.!(!nsup) <- j;
                incr nsup
              end;
              sw.sv.!(j) <- sw.sv.!(j) -. (u.re_mu.!(q) *. yt)
            done
          end
        done;
        (* Lᵀ closure over the static transpose structure *)
        let ts = tsym base in
        let n2 =
          reach_ptr sw ts.lsucc_ptr ts.lsucc_ind ~nseeds:!nsup ~out:sw.r2
            ~cutoff
        in
        if n2 < 0 then dense ()
        else begin
          for e = !nsup to n2 - 1 do
            let k = sw.r2.!(e) in
            sw.sv.!(k) <- 0.0;
            sw.sstamp.!(k) <- ep
          done;
          sort_prefix sw.r2 n2;
          for e = n2 - 1 downto 0 do
            let k = sw.r2.!(e) in
            let acc = ref sw.sv.!(k) in
            let rs = base.lrows.!(k) and vs = base.lvals.!(k) in
            for q = 0 to Array.length rs - 1 do
              let i = rs.!(q) in
              let vi = if sw.sstamp.!(i) = ep then sw.sv.!(i) else 0.0 in
              acc := !acc -. (vs.!(q) *. vi)
            done;
            sw.sv.!(k) <- !acc;
            y.!(base.p.!(k)) <- !acc;
            yind.!(e) <- base.p.!(k)
          done;
          sort_prefix yind n2;
          n2
        end
      end
    end

  (* --- the update itself ------------------------------------------ *)

  let grow_eta u need =
    if u.ne >= Array.length u.re_t then begin
      let nc = 2 * Array.length u.re_t in
      let t2 = Array.make nc 0 and p2 = Array.make (nc + 1) 0 in
      Array.blit u.re_t 0 t2 0 u.ne;
      Array.blit u.re_ptr 0 p2 0 (u.ne + 1);
      u.re_t <- t2;
      u.re_ptr <- p2
    end;
    while u.re_len + need > Array.length u.re_j do
      let nc = 2 * Array.length u.re_j in
      let j2 = Array.make nc 0 and m2 = Array.make nc 0.0 in
      Array.blit u.re_j 0 j2 0 u.re_len;
      Array.blit u.re_mu 0 m2 0 u.re_len;
      u.re_j <- j2;
      u.re_mu <- m2
    done

  (** [update u ~pos ~wr] replaces the basis column at position [pos]
      by the column whose FTRAN (with [keep_spike:true]) was just
      computed; [wr] is that FTRAN's value at [pos] (the simplex pivot
      element).  Returns [false] — leaving [u] unusable, the caller
      must refactorize — when the new border diagonal is tiny or fails
      the 1e-9 certification against the determinant identity
      [d = wr · u_tt]. *)
  let update u ~pos:r ~wr =
    if r < 0 || r >= u.base.m then
      invalid_arg (Printf.sprintf "Lu.Ft.update: position %d out of range" r);
    let w = u.w in
    let t = u.cpos.(r) in
    (* drop the replaced column t: its entries leave the rows *)
    (let n = u.ucol_n.(t) in
     let rs = u.ucol_i.(t) in
     for e = 0 to n - 1 do
       remove_entry u.urow_n u.urow_j u.urow_v rs.(e) t
     done;
     u.unnz <- u.unnz - n;
     u.ucol_n.(t) <- 0);
    (* gather the surviving row t (the border row) and drop it from the
       column storage *)
    w.accep <- w.accep + 1;
    let ep = w.accep in
    w.hepoch <- w.hepoch + 1;
    let hep = w.hepoch in
    let hn = ref 0 in
    let okey = w.okey in
    let hpush c =
      if w.hseen.(c) <> hep then begin
        w.hseen.(c) <- hep;
        let i = ref !hn in
        incr hn;
        w.heap.(!i) <- c;
        let kc = okey.(c) in
        let continue = ref true in
        while !continue && !i > 0 do
          let par = (!i - 1) / 2 in
          if okey.(w.heap.(par)) > kc then begin
            w.heap.(!i) <- w.heap.(par);
            w.heap.(par) <- c;
            i := par
          end
          else continue := false
        done
      end
    in
    let hpop () =
      let top = w.heap.(0) in
      decr hn;
      let last = w.heap.(!hn) in
      w.heap.(0) <- last;
      let kl = okey.(last) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        let r = l + 1 in
        let s = ref !i in
        if l < !hn && okey.(w.heap.(l)) < okey.(w.heap.(!s)) then s := l;
        if r < !hn && okey.(w.heap.(r)) < okey.(w.heap.(!s)) then s := r;
        if !s <> !i then begin
          w.heap.(!i) <- w.heap.(!s);
          w.heap.(!s) <- last;
          ignore kl;
          i := !s
        end
        else continue := false
      done;
      top
    in
    (let n = u.urow_n.(t) in
     let js = u.urow_j.(t) and vs = u.urow_v.(t) in
     for e = 0 to n - 1 do
       let c = js.(e) in
       w.acc.(c) <- vs.(e);
       w.accst.(c) <- ep;
       hpush c;
       remove_entry u.ucol_n u.ucol_i u.ucol_v c t
     done;
     u.unnz <- u.unnz - n;
     u.urow_n.(t) <- 0);
    (* eliminate the border row against the remaining rows, ascending
       active order; row operations fill only the border row itself *)
    let dold = u.d.(t) in
    let dref = ref w.spike.(t) in
    let eta_start = u.re_len in
    while !hn > 0 do
      let c = hpop () in
      let utc = if w.accst.(c) = ep then w.acc.(c) else 0.0 in
      if utc <> 0.0 then begin
        let mu = utc /. u.d.(c) in
        grow_eta u 1;
        u.re_j.(u.re_len) <- c;
        u.re_mu.(u.re_len) <- mu;
        u.re_len <- u.re_len + 1;
        let n = u.urow_n.(c) in
        let js = u.urow_j.(c) and vs = u.urow_v.(c) in
        for e = 0 to n - 1 do
          let c' = js.(e) in
          if w.accst.(c') <> ep then begin
            w.acc.(c') <- 0.0;
            w.accst.(c') <- ep
          end;
          w.acc.(c') <- w.acc.(c') -. (mu *. vs.(e));
          hpush c'
        done;
        dref := !dref -. (mu *. w.spike.(c))
      end
    done;
    let d = !dref in
    let expect = wr *. dold in
    let scale = Float.max 1.0 (Float.max (Float.abs expect) (Float.abs d)) in
    if d = 0.0 || Float.abs (d -. expect) > 1e-9 *. scale then begin
      u.re_len <- eta_start;
      false
    end
    else begin
      (if u.re_len > eta_start then begin
         u.re_t.(u.ne) <- t;
         u.re_ptr.(u.ne + 1) <- u.re_len;
         u.ne <- u.ne + 1
       end);
      (* install the spike as the new border column *)
      (if w.spike_n < 0 then begin
         let cnt = ref 0 in
         for i = 0 to u.base.m - 1 do
           if i <> t && w.spike.(i) <> 0.0 then begin
             push_entry u.ucol_n u.ucol_i u.ucol_v t i w.spike.(i);
             push_entry u.urow_n u.urow_j u.urow_v i t w.spike.(i);
             incr cnt
           end
         done;
         u.unnz <- u.unnz + !cnt
       end
       else begin
         let cnt = ref 0 in
         for e = 0 to w.spike_n - 1 do
           let i = w.spike_ind.(e) in
           if i <> t && w.spike.(i) <> 0.0 then begin
             push_entry u.ucol_n u.ucol_i u.ucol_v t i w.spike.(i);
             push_entry u.urow_n u.urow_j u.urow_v i t w.spike.(i);
             incr cnt
           end
         done;
         u.unnz <- u.unnz + !cnt
       end);
      u.d.(t) <- d;
      (* move slot t to the border of the active order *)
      if u.otail <> t then begin
        let pr = w.oprev.(t) and nx = w.onext.(t) in
        if pr >= 0 then w.onext.(pr) <- nx else u.ohead <- nx;
        if nx >= 0 then w.oprev.(nx) <- pr;
        w.onext.(u.otail) <- t;
        w.oprev.(t) <- u.otail;
        w.onext.(t) <- -1;
        u.otail <- t
      end;
      u.omax <- u.omax + 1;
      okey.(t) <- u.omax;
      u.nupd <- u.nupd + 1;
      let fr = fill_ratio u in
      if fr > u.fill_hwm then u.fill_hwm <- fr;
      true
    end
end
