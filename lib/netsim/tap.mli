(** The adversary's passive observation point — the simulated equivalent
    of the paper's Agilent J6841A line analyzer — as registry counters.

    The staged pipeline records the tap's timestamps inline (see
    [Scenarios.System]); this module owns the tap's counters.  The tap
    records only the padded stream (payload + dummy): the adversary
    cannot tell those two apart (contents are encrypted) but can
    distinguish them from unrelated cross traffic by address, as the
    paper's adversary does when tapping the gateway-to-gateway flow.
    The event-loop recorder that splices into a port chain is kept in
    test/evloop/ as a reference. *)

val note_batch : observed:int -> payload:int -> dummy:int -> unit
(** Fold a run's observations into [netsim.tap.observed] / [.payload] /
    [.dummy] in one transactional add.  Raises [Invalid_argument] on
    negative counts. *)
