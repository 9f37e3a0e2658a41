(** Energy-mode warm-start benchmark: a CoMD deadline sweep solved cold
    and warm {e across} the objective switch
    ({!Core.Event_lp.switch_objective}).  Writes [BENCH_energy.json] and
    fails hard when any switched objective drifts from the cold one by
    more than 1e-9 relative, or (at 32 ranks or
    more) when the cross-mode sweep's median per-deadline speedup over
    cold falls below 2x. *)

val run : ?config:Common.config -> Format.formatter -> unit
(** Raises [Failure] on a gate violation (CI relies on the non-zero
    exit). *)
