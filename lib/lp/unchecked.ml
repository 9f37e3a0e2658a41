(* Array access without the bounds check, for the simplex's inner loops
   only: the Forrest–Tomlin solves in {!Lu.Ft} and the pricing and ratio
   scans of {!Revised}.  Every index such a loop uses comes from a
   structure whose range is fixed where it is built (the factorization's
   permutations and slots, the constraint matrix, the solver's own work
   arrays), and the entry points check what callers hand in.  DESIGN.md
   §12 lists each loop with its invariant and the check behind it. *)

external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
