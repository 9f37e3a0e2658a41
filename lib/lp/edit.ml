(** Typed structural edits of a compiled LP, with basis-mapped warm
    re-solves.  See edit.mli for the contract; the mechanics:

    - {!apply} applies each run of consecutive value edits ([Set_bounds],
      [Set_obj], [Set_rhs], [Set_entry]) on one copy of each array the
      run touches, with at most one matrix rebuild, and each structural
      edit through a COO round trip of the matrix.  A rebuild per edit
      is not negligible: on CoMD 16x10 the 230 edits of a structural
      rank drop spent 166-186 ms rebuilding (2-vCPU host), over three
      times a cold solve of the edited LP (52 ms).  A run whose
      [Set_entry] edits all rewrite existing entries with nonzero
      coefficients rebuilds nothing: it copies the values, writes the
      new coefficients in place and shares the structure.

    - The basis mapping treats every structural change as a bordered
      update of the factorized basis B (see {!Lu}):

      {ul
      {- an added row takes its own slack basic — the bordered system
         [[B 0]; [aᵀ ±1]] pivots on ±1 and is never singular, and the
         zero-cost slack keeps the dual point feasible;}
      {- an added column enters nonbasic at a bound — B is untouched;}
      {- a removed row must retire one basic column.  If the row's own
         slack is basic the pair (row, slack) is removable outright
         (deleting row i and column e_i leaves the determinant intact);
         otherwise the pivot column B⁻¹e_i ({!Lu.unit_ftran}) scores
         every basis position and the largest-magnitude pivot wins;}
      {- a removed column that is basic must recruit a replacement.  The
         pivot row B⁻ᵀe_pos ({!Lu.unit_btran}) scores every row whose
         slack is nonbasic, and the slack with the largest pivot stands
         in.}}

      A pivot below {!pivot_tol}, a singular or fill-heavy
      factorization, or exhausting the per-mapping factorization budget
      abandons the mapping — the caller then solves cold. *)

type t =
  | Add_row of {
      name : string;
      terms : (float * int) list;
      sense : Model.sense;
      rhs : float;
    }
  | Remove_row of int
  | Add_col of {
      name : string;
      lb : float;
      ub : float;
      obj : float;
      terms : (float * int) list;
    }
  | Remove_col of int
  | Set_bounds of { col : int; lb : float; ub : float }
  | Set_obj of { col : int; obj : float }
  | Set_entry of { row : int; col : int; coef : float }
  | Set_rhs of { row : int; rhs : float }

let pp ppf = function
  | Add_row { name; terms; sense; rhs } ->
      Fmt.pf ppf "add-row %s (%d terms) %a %g" name (List.length terms)
        Model.pp_sense sense rhs
  | Remove_row i -> Fmt.pf ppf "remove-row %d" i
  | Add_col { name; lb; ub; obj; terms } ->
      Fmt.pf ppf "add-col %s [%g,%g] obj %g (%d terms)" name lb ub obj
        (List.length terms)
  | Remove_col j -> Fmt.pf ppf "remove-col %d" j
  | Set_bounds { col; lb; ub } -> Fmt.pf ppf "set-bounds %d [%g,%g]" col lb ub
  | Set_obj { col; obj } -> Fmt.pf ppf "set-obj %d %g" col obj
  | Set_entry { row; col; coef } ->
      Fmt.pf ppf "set-entry (%d,%d) %g" row col coef
  | Set_rhs { row; rhs } -> Fmt.pf ppf "set-rhs %d %g" row rhs

(* ------------------------------------------------------------------ *)
(* validation                                                          *)
(* ------------------------------------------------------------------ *)

let invalid fmt = Printf.ksprintf invalid_arg fmt

let check_row (p : Model.problem) i what =
  if i < 0 || i >= p.nr then invalid "Lp.Edit.%s: row %d outside 0..%d" what i (p.nr - 1)

let check_col (p : Model.problem) j what =
  if j < 0 || j >= p.nv then invalid "Lp.Edit.%s: col %d outside 0..%d" what j (p.nv - 1)

let check_val v what =
  if Float.is_nan v then invalid "Lp.Edit.%s: NaN value" what

let check_finite v what =
  if not (Float.is_finite v) then invalid "Lp.Edit.%s: non-finite value %g" what v

(* ------------------------------------------------------------------ *)
(* applying edits                                                      *)
(* ------------------------------------------------------------------ *)

(* Rebuild the CSC matrix from an entry enumeration with the edit's
   transformation folded in.  [emit f] must call [f row col v] for every
   entry of the edited matrix. *)
let rebuild ~nr ~nv emit =
  let coo = Sparse.Coo.create () in
  emit (fun i j v -> Sparse.Coo.add coo i j v);
  Sparse.Csc.of_coo ~nrows:nr ~ncols:nv coo

let iter_entries (p : Model.problem) f =
  for j = 0 to p.nv - 1 do
    Sparse.Csc.iter_col p.a j (fun i v -> f i j v)
  done

let remove_idx a i =
  Array.init (Array.length a - 1) (fun k -> if k < i then a.(k) else a.(k + 1))

let append a v =
  let n = Array.length a in
  Array.init (n + 1) (fun k -> if k < n then a.(k) else v)

(* [a] with the coefficients of [entries] ((row, col) -> coef; 0 deletes)
   overwritten in one pass: untouched columns are copied, touched ones
   merged in row order, exactly the matrix the COO round trip builds. *)
let merge_entries (a : Sparse.Csc.t) entries =
  let touched = Array.make a.ncols [] in
  Hashtbl.iter (fun (i, j) v -> touched.(j) <- (i, v) :: touched.(j)) entries;
  let cap = Sparse.Csc.nnz a + Hashtbl.length entries in
  let rowind = Array.make cap 0 and values = Array.make cap 0.0 in
  let colptr = Array.make (a.ncols + 1) 0 and w = ref 0 in
  let put i v =
    if v <> 0.0 then begin
      rowind.(!w) <- i;
      values.(!w) <- v;
      incr w
    end
  in
  for j = 0 to a.ncols - 1 do
    colptr.(j) <- !w;
    let hi = a.colptr.(j + 1) in
    let rec merge k = function
      | (i, v) :: rest when k >= hi || i <= a.rowind.(k) ->
          put i v;
          merge (if k < hi && a.rowind.(k) = i then k + 1 else k) rest
      | over when k < hi ->
          put a.rowind.(k) a.values.(k);
          merge (k + 1) over
      | _ -> ()
    in
    merge a.colptr.(j) (List.sort compare touched.(j))
  done;
  colptr.(a.ncols) <- !w;
  { a with colptr; rowind = Array.sub rowind 0 !w; values = Array.sub values 0 !w }

let has_zero (v : float array) =
  let rec go k = k < Array.length v && (v.(k) = 0.0 || go (k + 1)) in
  go 0

(* Where each edit of [entries] lands in [a.values], when every one
   rewrites an existing entry with a nonzero coefficient and [a] stores
   no explicit zero; [None] otherwise.  Writing the values there then
   builds the merge's matrix bit for bit: the merge would drop only
   zeros.  [Csc.t] is a public record that any code may build, so the
   zeros are looked for, with one scan, rather than assumed absent. *)
let patch_sites (a : Sparse.Csc.t) entries =
  let find i j =
    let rec go k =
      if k >= a.colptr.(j + 1) then None
      else if a.rowind.(k) = i then Some k
      else go (k + 1)
    in
    go a.colptr.(j)
  in
  let sites =
    Hashtbl.fold
      (fun (i, j) v acc ->
        match acc with
        | Some l when v <> 0.0 -> Option.map (fun k -> (k, v) :: l) (find i j)
        | _ -> None)
      entries (Some [])
  in
  match sites with Some _ when not (has_zero a.values) -> sites | _ -> None

(* [a] with the coefficients of [entries] overwritten.  Edits that only
   rewrite nonzero entries copy the values and share [colptr] and
   [rowind] with [a]; any other run takes the merge. *)
let set_entries (a : Sparse.Csc.t) entries =
  match patch_sites a entries with
  | Some sites ->
      let values = Array.copy a.values in
      List.iter (fun (k, v) -> values.(k) <- v) sites;
      { a with values }
  | None -> merge_entries a entries

(* Apply a run of value edits: each array the run touches is copied
   once, and the matrix is rebuilt at most once. *)
let apply_values (p : Model.problem) edits =
  let own a = lazy (Array.copy a) in
  let lb = own p.lb and ub = own p.ub and obj = own p.obj in
  let rhs = own p.row_rhs and entries = Hashtbl.create 8 in
  List.iter
    (function
      | Set_bounds { col; lb = l; ub = u } ->
          check_col p col "set_bounds";
          check_val l "set_bounds";
          check_val u "set_bounds";
          if l > u then invalid "Lp.Edit.set_bounds: lb %g > ub %g" l u;
          (Lazy.force lb).(col) <- l;
          (Lazy.force ub).(col) <- u
      | Set_obj { col; obj = o } ->
          check_col p col "set_obj";
          check_finite o "set_obj";
          (Lazy.force obj).(col) <- o
      | Set_rhs { row; rhs = r } ->
          check_row p row "set_rhs";
          check_finite r "set_rhs";
          (Lazy.force rhs).(row) <- r
      | Set_entry { row; col; coef } ->
          check_row p row "set_entry";
          check_col p col "set_entry";
          check_finite coef "set_entry";
          Hashtbl.replace entries (row, col) coef
      | Add_row _ | Remove_row _ | Add_col _ | Remove_col _ ->
          invalid_arg "Lp.Edit.apply_values: structural edit")
    edits;
  let kept l a = if Lazy.is_val l then Lazy.force l else a in
  {
    p with
    lb = kept lb p.lb;
    ub = kept ub p.ub;
    obj = kept obj p.obj;
    row_rhs = kept rhs p.row_rhs;
    a = (if Hashtbl.length entries = 0 then p.a else set_entries p.a entries);
  }

(* One structural edit, through a COO rebuild of the matrix. *)
let apply_structural (p : Model.problem) (e : t) : Model.problem =
  match e with
  | Set_bounds _ | Set_obj _ | Set_entry _ | Set_rhs _ -> apply_values p [ e ]
  | Add_row { name; terms; sense; rhs } ->
      check_finite rhs "add_row";
      List.iter
        (fun (c, j) ->
          check_finite c "add_row";
          check_col p j "add_row")
        terms;
      let a =
        rebuild ~nr:(p.nr + 1) ~nv:p.nv (fun add ->
            iter_entries p add;
            List.iter (fun (c, j) -> add p.nr j c) terms)
      in
      {
        p with
        nr = p.nr + 1;
        a;
        row_sense = append p.row_sense sense;
        row_rhs = append p.row_rhs rhs;
        row_names = append p.row_names name;
      }
  | Remove_row i ->
      check_row p i "remove_row";
      let a =
        rebuild ~nr:(p.nr - 1) ~nv:p.nv (fun add ->
            iter_entries p (fun r j v ->
                if r < i then add r j v else if r > i then add (r - 1) j v))
      in
      {
        p with
        nr = p.nr - 1;
        a;
        row_sense = remove_idx p.row_sense i;
        row_rhs = remove_idx p.row_rhs i;
        row_names = remove_idx p.row_names i;
      }
  | Add_col { name; lb; ub; obj; terms } ->
      check_val lb "add_col";
      check_val ub "add_col";
      if lb > ub then invalid "Lp.Edit.add_col: lb %g > ub %g" lb ub;
      check_finite obj "add_col";
      List.iter
        (fun (c, i) ->
          check_finite c "add_col";
          check_row p i "add_col")
        terms;
      let a =
        rebuild ~nr:p.nr ~nv:(p.nv + 1) (fun add ->
            iter_entries p add;
            List.iter (fun (c, i) -> add i p.nv c) terms)
      in
      {
        p with
        nv = p.nv + 1;
        a;
        lb = append p.lb lb;
        ub = append p.ub ub;
        obj = append p.obj obj;
        integer = append p.integer false;
        var_names = append p.var_names name;
      }
  | Remove_col j ->
      check_col p j "remove_col";
      let a =
        rebuild ~nr:p.nr ~nv:(p.nv - 1) (fun add ->
            iter_entries p (fun i c v ->
                if c < j then add i c v else if c > j then add i (c - 1) v))
      in
      {
        p with
        nv = p.nv - 1;
        a;
        lb = remove_idx p.lb j;
        ub = remove_idx p.ub j;
        obj = remove_idx p.obj j;
        integer = remove_idx p.integer j;
        var_names = remove_idx p.var_names j;
      }

(* Fold an edit list: each maximal run of value edits is applied in one
   pass, each structural edit on its own.  [step] sees every structural
   edit with the problem it applies to. *)
let fold_runs (p : Model.problem) ~step edits =
  let rec go p run = function
    | (Set_bounds _ | Set_obj _ | Set_entry _ | Set_rhs _) as e :: rest ->
        go p (e :: run) rest
    | rest -> (
        let p = if run = [] then p else apply_values p (List.rev run) in
        match rest with
        | [] -> p
        | e :: rest ->
            step p e;
            go (apply_structural p e) [] rest)
  in
  go p [] edits

let apply p edits = fold_runs p ~step:(fun _ _ -> ()) edits

(* The minimal Set_obj list turning [p]'s objective into [obj]:
   one edit per column whose coefficient actually changes (bit-level
   comparison, so -0.0 vs 0.0 round-trips exactly).  This is how an
   objective-mode switch (makespan <-> energy, {!Core.Event_lp}) is
   expressed in the edit language: the basis mapping is trivial — no
   structural change — and the dual simplex repairs the now-stale
   reduced costs. *)
let set_objective (p : Model.problem) (obj : float array) : t list =
  if Array.length obj <> p.nv then
    invalid_arg
      (Printf.sprintf "Edit.set_objective: %d coefficients for %d columns"
         (Array.length obj) p.nv);
  let acc = ref [] in
  for col = p.nv - 1 downto 0 do
    if
      not
        (Int64.equal
           (Int64.bits_of_float p.obj.(col))
           (Int64.bits_of_float obj.(col)))
    then acc := Set_obj { col; obj = obj.(col) } :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* index maps                                                          *)
(* ------------------------------------------------------------------ *)

(* Track where each of the original problem's rows/columns ends up.
   Only the shape evolution matters, so the fold carries (nv, nr) and
   the two maps. *)
let maps (p : Model.problem) edits =
  let cmap = Array.init p.nv Fun.id and rmap = Array.init p.nr Fun.id in
  let drop map i =
    Array.iteri
      (fun k v -> if v = i then map.(k) <- -1 else if v > i then map.(k) <- v - 1)
      map
  in
  ignore
    (List.fold_left
       (fun (nv, nr) e ->
         match e with
         | Add_row _ -> (nv, nr + 1)
         | Remove_row i ->
             drop rmap i;
             (nv, nr - 1)
         | Add_col _ -> (nv + 1, nr)
         | Remove_col j ->
             drop cmap j;
             (nv - 1, nr)
         | Set_bounds _ | Set_obj _ | Set_entry _ | Set_rhs _ -> (nv, nr))
       (p.nv, p.nr) edits);
  (cmap, rmap)

let col_map p edits = fst (maps p edits)
let row_map p edits = snd (maps p edits)

(* ------------------------------------------------------------------ *)
(* basis mapping                                                       *)
(* ------------------------------------------------------------------ *)

(* Pivots below this magnitude are treated as singular pairings. *)
let pivot_tol = 1e-9

(* A factorization whose fill exceeds this multiple of the basis's own
   nonzero count is "excessive fill": the bordered scoring would be as
   expensive as a cold factorization path, so give up and solve cold. *)
let fill_limit = 8

(* Factorizations allowed while mapping one edit list; long structural
   sequences past this are cheaper to re-solve cold. *)
let factor_budget = 32

let factor_guarded (p : Model.problem) (b : Revised.basis) budget =
  if !budget <= 0 then None
  else begin
    decr budget;
    let m = p.nr in
    let lu =
      Lu.factor ~m (fun k f ->
          let j = b.Revised.basic.(k) in
          if j < p.nv then Sparse.Csc.iter_col p.a j f else f (j - p.nv) 1.0)
    in
    if lu.Lu.replaced <> [] then None
    else begin
      let base = ref m in
      Array.iter
        (fun j ->
          if j < p.nv then
            base :=
              !base + p.a.Sparse.Csc.colptr.(j + 1) - p.a.Sparse.Csc.colptr.(j))
        b.Revised.basic;
      if Lu.nnz lu > fill_limit * !base then None else Some lu
    end
  end

(* Nonbasic status a column lands at when it leaves the basis. *)
let off_basis_status lo hi =
  if Float.is_finite lo then 'l' else if Float.is_finite hi then 'u' else 'f'

let slack_bounds (p : Model.problem) r =
  match p.row_sense.(r) with
  | Model.Le -> (0.0, Float.infinity)
  | Model.Ge -> (Float.neg_infinity, 0.0)
  | Model.Eq -> (0.0, 0.0)

(* Map a basis of [p] across one edit; [p] is the PRE-edit problem.
   Shape bookkeeping mirrors [apply_structural]: columns are
   [0..nv-1] structural then [nv..nv+nr-1] slacks, and removals compact
   both spaces. *)
let map_one (p : Model.problem) (b : Revised.basis) budget (e : t) :
    Revised.basis option =
  let nv = p.nv and m = p.nr in
  match e with
  | Set_bounds _ | Set_obj _ | Set_entry _ | Set_rhs _ -> Some b
  | Add_col { lb; ub; _ } ->
      (* the new column (index nv) enters nonbasic; slacks shift up *)
      let vstat = Array.make (nv + 1 + m) 'l' in
      Array.blit b.Revised.vstat 0 vstat 0 nv;
      vstat.(nv) <- off_basis_status lb ub;
      Array.blit b.Revised.vstat nv vstat (nv + 1) m;
      let basic =
        Array.map (fun j -> if j >= nv then j + 1 else j) b.Revised.basic
      in
      Some { Revised.basic; vstat }
  | Add_row { terms = _; _ } ->
      (* the new row's slack (index nv+m in the new shape) goes basic:
         the bordered system pivots on the slack's ±1 diagonal *)
      let vstat = append b.Revised.vstat 'b' in
      let basic = append b.Revised.basic (nv + m) in
      Some { Revised.basic; vstat }
  | Remove_col j ->
      let shrink ~basic =
        let basic =
          Array.map (fun c -> if c > j then c - 1 else c) basic
        in
        let vstat = remove_idx b.Revised.vstat j in
        Array.iter (fun c -> vstat.(c) <- 'b') basic;
        Some { Revised.basic; vstat }
      in
      if b.Revised.vstat.(j) <> 'b' then shrink ~basic:b.Revised.basic
      else begin
        (* recruit the best-pivot nonbasic slack to stand in *)
        match factor_guarded p b budget with
        | None -> None
        | Some lu ->
            let pos = ref (-1) in
            Array.iteri
              (fun k c -> if c = j then pos := k)
              b.Revised.basic;
            if !pos < 0 then None
            else begin
              let y = Lu.unit_btran lu ~pos:!pos in
              let best = ref (-1) and best_mag = ref pivot_tol in
              for r = 0 to m - 1 do
                if
                  b.Revised.vstat.(nv + r) <> 'b'
                  && Float.abs y.(r) > !best_mag
                then begin
                  best := r;
                  best_mag := Float.abs y.(r)
                end
              done;
              if !best < 0 then None
              else begin
                let basic = Array.copy b.Revised.basic in
                basic.(!pos) <- nv + !best;
                shrink ~basic
              end
            end
      end
  | Remove_row i ->
      let slack = nv + i in
      (* rebuild statuses in the (nv, m-1) shape from a list of basic
         columns given in the OLD shape minus the dropped one *)
      let shrink ~basic_old ~drop_pos =
        let basic =
          Array.init (m - 1) (fun k ->
              let k' = if k < drop_pos then k else k + 1 in
              let c = basic_old.(k') in
              if c > slack then c - 1 else c)
        in
        let vstat = remove_idx b.Revised.vstat slack in
        (* nonbasic statuses survive verbatim; re-mark basics *)
        Array.iter (fun c -> vstat.(c) <- 'b') basic;
        Some { Revised.basic; vstat }
      in
      if b.Revised.vstat.(slack) = 'b' then begin
        (* deleting row i together with its basic slack column e_i
           leaves the remaining minor nonsingular outright *)
        let pos = ref (-1) in
        Array.iteri (fun k c -> if c = slack then pos := k) b.Revised.basic;
        if !pos < 0 then None
        else shrink ~basic_old:b.Revised.basic ~drop_pos:!pos
      end
      else begin
        match factor_guarded p b budget with
        | None -> None
        | Some lu ->
            let x = Lu.unit_ftran lu ~row:i in
            let best = ref (-1) and best_mag = ref pivot_tol in
            Array.iteri
              (fun k v ->
                if Float.abs v > !best_mag then begin
                  best := k;
                  best_mag := Float.abs v
                end)
              x;
            if !best < 0 then None
            else begin
              (* the retired column leaves to its natural bound *)
              let out = b.Revised.basic.(!best) in
              let vstat = Array.copy b.Revised.vstat in
              (if out < nv then
                 vstat.(out) <- off_basis_status p.lb.(out) p.ub.(out)
               else begin
                 let lo, hi = slack_bounds p (out - nv) in
                 vstat.(out) <- off_basis_status lo hi
               end);
              shrink
                ~basic_old:b.Revised.basic
                ~drop_pos:!best
              |> Option.map (fun (bb : Revised.basis) ->
                     (* recompute statuses from the patched vstat *)
                     let vstat' = remove_idx vstat slack in
                     Array.iter
                       (fun c -> vstat'.(c) <- 'b')
                       bb.Revised.basic;
                     { bb with Revised.vstat = vstat' })
            end
      end

(* Apply the edit list once, mapping the basis (as long as it survives)
   across each structural edit; value edits leave the basis set alone. *)
let fold_edits (p : Model.problem) (warm : Revised.basis option) edits =
  let b = ref warm and budget = ref factor_budget in
  let step p e = b := Option.bind !b (fun b -> map_one p b budget e) in
  let p' = fold_runs p ~step edits in
  (p', !b)

let map_basis p b edits = snd (fold_edits p (Some b) edits)

let resolve ?max_iter ?feas_tol ?opt_tol ?warm (p : Model.problem) edits =
  let p', w = fold_edits p warm edits in
  Stats.note_edit ~warm:(w <> None)
    ~fallback:(warm <> None && w = None);
  (p', Revised.solve ?max_iter ?feas_tol ?opt_tol ?warm:w p')
