(** T001 — transitive determinism of parallel task bodies.

    Walks the call graph from every call site that resolves to
    [Scenarios.Sweep.mapi] (or the [run] / [tabulate] helpers built on
    it) or an [Exec.Pool] fan-out entry point and
    flags any reachable ambient-randomness use, wall-clock read, or
    module-state mutation.  [lib/prng] and [lib/obs] are sanctioned
    boundaries (never traversed); Atomic/Mutex state never registers as
    a sink.  Findings report at the root call site with the offending
    call chain; suppressible with [talint: allow T001] at either the
    root line or the sink line. *)

val run : Callgraph.t -> Finding.t list
