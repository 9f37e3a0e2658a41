(** Simplex benchmark: cold, warm and cap-sweep timings, pivot counts
    and kernel sparse-hit rates at three trace sizes, plus the
    32 → 1296-rank size ladder.  Writes [BENCH_simplex.json] (schema
    documented in EXPERIMENTS.md) and fails — non-zero exit — when
    cold-solve time grows superquadratically from 512 to 1024 ranks. *)

val run : ?config:Common.config -> Format.formatter -> unit
