(** POWERLIM_* environment knobs, read with validation.

    Every reader follows the same rules:

    - unset or empty ([""], after trimming whitespace) means {e use the
      default} — [Unix.putenv] cannot remove a variable, so the empty
      value is the portable way for tests and in-process benchmarks to
      return a knob to its default;
    - a malformed value is {e rejected}: the default is used and a
      warning naming the variable, the rejected value and the default
      is printed to stderr {e once per process per variable} (so a knob
      read on every solve does not spam);
    - flags accept [0]/[false]/[off]/[no] and [1]/[true]/[on]/[yes],
      case-insensitively.

    Values are re-read from the environment on every call, so tests can
    flip knobs between solves. *)

val flag : string -> default:bool -> bool

val int : string -> default:int -> int
(** Range checks belong to the caller: [POWERLIM_JOBS], the one integer
    knob, clamps its own value. *)

val rejected : unit -> (string * string) list
(** [(name, value)] of every knob rejection warned so far, oldest
    first — one entry per variable.  For tests and the serve stats. *)

val reset_warnings : unit -> unit
(** Forget warn-once state (tests only). *)
