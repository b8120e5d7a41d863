(** Tap-starvation detection shared by the scenario drivers.

    A scenario advances its simulation in chunks until the tap has
    observed a target number of padded packets.  Under extreme fault
    profiles (a permanent outage, a gateway that never restarts) the tap
    stops filling and the chunk loop would otherwise spin to its budget
    and abort with a bare [Failure].  Instead the loop watches for
    progress and raises {!Tap_starved} carrying the full metrics
    snapshot, so the caller (and the operator reading the CLI error) can
    see {e which} stage of the pipeline ate the traffic. *)

exception
  Tap_starved of {
    scenario : string;  (** driver name, e.g. ["degradation.run"] *)
    target : int;  (** padded packets the driver needed *)
    observed : int;  (** padded packets the tap actually saw *)
    sim_time : float;  (** simulated seconds at the point of giving up *)
    metrics : Obs.Metrics.Snapshot.t;
        (** registry snapshot taken at the point of giving up *)
  }

val drive :
  scenario:string ->
  ?slack:float ->
  ?min_chunk:float ->
  now:(unit -> float) ->
  count:(unit -> int) ->
  advance:(float -> unit) ->
  on_starve:(unit -> unit) ->
  target:int ->
  expected_rate:float ->
  unit ->
  unit
(** The chunk loop: advance in chunks sized [missing / expected_rate *
    slack] (default 1.1; at least [min_chunk] seconds, default 0.1) until
    [count ()] reaches [target], abstracted over how time is read
    ([now]), how progress is measured ([count]), and how the simulation
    advances to a chunk boundary ([advance]).  The staged pipeline and
    its event-loop reference both drive through this, so the
    data-dependent chunk boundaries — and therefore the starvation
    decision and its simulated timestamp — come from the very same
    arithmetic.  Raises {!Tap_starved} when the chunk budget runs out or
    the count makes no progress for a stall window; [on_starve] runs
    (e.g. to flush pending metric tallies) just before, so the snapshot
    in the exception reflects the flushed state.  Whatever [advance]
    raises (an armed event budget tripping) passes through. *)

val pp_starved : Format.formatter -> exn -> bool
(** Render a {!Tap_starved} exception as an operator-facing report
    (headline plus the non-[exec.] metrics snapshot); [false] when the
    exception is anything else. *)
