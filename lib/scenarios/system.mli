(** Assembly and execution of one complete padded system: payload source →
    sender gateway → unprotected hop chain (with adversary tap) → receiver
    gateway.  One [run] simulates one payload-rate class and returns the
    adversary's PIAT trace plus the defender-side accounting. *)

type payload_model =
  | Poisson_payload  (** memoryless payload arrivals (default) *)
  | Cbr_payload      (** perfectly periodic payload *)

type config = {
  seed : int;
  timer : Padding.Timer.law;
  jitter : Padding.Jitter.t;
  payload_rate_pps : float;
  payload_model : payload_model;
  packet_size : int;
  hops : Netsim.Topology.hop_spec array;
  tap_position : int;
  warmup_piats : int;  (** discarded from the front of the trace *)
}

val default_config : config
(** CIT 10 ms, mechanistic jitter, 10 pps Poisson payload, no hops, tap at
    the gateway output, 200-PIAT warm-up, seed 42. *)

type result = {
  piats : float array;          (** the adversary's sample material *)
  timestamps : float array;     (** absolute tap arrival times (post warmup) *)
  overhead : float;             (** dummy fraction of emitted packets *)
  payload_offered : int;        (** payload packets the source produced *)
  payload_delivered : int;      (** payload packets through the receiver *)
  payload_dropped_gw : int;     (** payload lost to gateway queue overflow *)
  mean_payload_latency : float;
  sim_time : float;             (** simulated seconds consumed *)
}

val arm_event_budget : Desim.Sim.t -> unit
(** Install the per-task event budget published by the nearest enclosing
    [Exec.Supervise.with_event_budget] (if any) on a simulator — the hook
    through which {!Sweep}'s watchdog reaches every [run*] entry point,
    including {!Degradation}'s fault-injected driver.  No-op when no
    budget is installed. *)

val tap_target : warmup:int -> count:int -> int
(** The tap timestamps a run collects to yield [count] PIATs after
    dropping [warmup] of them: [count + warmup + 2]. *)

val observed : warmup:int -> count:int -> float array -> float array * float array
(** [observed ~warmup ~count raw] trims the warm-up off the raw tap
    timestamps [raw] (the first [warmup + 1] timestamps, hence the first
    [warmup] PIATs) and returns at most [count] PIATs of what is left,
    with the trimmed timestamps. *)

val run : ?fresh_arena:bool -> config -> piats:int -> result
(** Simulate until the tap has recorded [piats] inter-arrival times beyond
    the warm-up, then stop.  Raises [Desim.Sim.Event_budget_exceeded] if
    a supervising sweep armed an event budget and the run overran it, and
    [Starvation.Tap_starved] if the tap stops making progress before the
    budget is met.  Deterministic in [config.seed].
    [piats >= 1].  By default the run recycles the calling domain's
    {!Arena} (simulator, tap vectors, gateway buffers) — observably
    identical to a fresh simulator but without re-growing storage on every
    run of a sweep; [fresh_arena:true] forces brand-new state.

    Every entry point runs on one staged pipeline: a front stage (here
    {!Padding.Kernel} as the gateway), one {!Netsim.Linkstage} per hop,
    and an inline tap and receiver, whatever the payload model and
    cross-traffic laws; [desim.kernel.runs] counts the runs.  The
    discrete-event assembly of the same system is kept as a test
    reference: the pipeline makes the same RNG draws in the same order
    and produces bit-identical results, metric totals and trace bytes at
    any [--jobs], except for a deterministic surrogate of the
    [desim.queue_hwm] event-queue gauge.

    Same-instant events follow one tie rule.  On every link, departures
    first.  A hop's upstream input goes before its cross tick, a pair
    that coincides with probability zero under Poisson and on/off cross
    traffic.  A payload arrival and a timer fire go in arming order, as
    an event queue's sequence orders them ({!Padding.Kernel}); CBR
    payload under CIT puts them on one lattice.  Trace records with
    equal insertion keys come out in pipeline order — gateway, the hops
    before the tap, the tap, the hops after it; an event loop emits them
    in scheduling order, so with event times on a shared lattice (e.g.
    jitterless CIT whose period equals a hop's transmit time) its
    equal-timestamp lines can come in another order. *)

val run_sharded :
  ?fresh_arena:bool -> ?jobs:int -> ?shards:int -> config -> piats:int -> result
(** [run_sharded ~shards cfg ~piats] collects the same PIAT budget as
    {!run} but split across [shards] independent simulations, fanned out
    on {!Exec.Pool} and merged in shard order.  Shard [i] runs with seed
    [Prng.Rng.mix_seed cfg.seed i], so the decomposition — and therefore
    the merged result — depends only on [(cfg.seed, shards, piats)]:
    byte-identical at any [--jobs], which only changes how many shards
    run concurrently.  [shards = 1] (the default) is exactly [run].

    Merge semantics: [piats] are concatenated in shard order; payload
    counters are summed; [overhead] is weighted by per-shard [sim_time]
    and [mean_payload_latency] by per-shard [payload_delivered];
    [sim_time] sums.  Because per-shard clocks restart at zero, the
    merged [timestamps] is empty — sharded collection serves PIAT
    statistics, not absolute-time series.  Note each shard pays its own
    [warmup_piats], so prefer few large shards over many small ones.

    Raises [Invalid_argument] if [shards < 1] or [piats < shards]; like
    {!run}, raises [Starvation.Tap_starved] or
    [Desim.Sim.Event_budget_exceeded] when a shard starves or overruns
    an armed event budget. *)

val run_unpadded : ?fresh_arena:bool -> config -> packets:int -> result
(** Baseline without any gateway: the payload stream crosses the same hop
    chain in the clear ([timer]/[jitter] ignored, [piats] are exactly
    [packets] payload inter-arrivals).  The front stage is the payload
    {!Netsim.Source} itself: each packet leaves at its arrival instant.
    Used by the packet-counting attack example.
    Raises [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded]
    as {!run} does. *)

val run_mix :
  ?fresh_arena:bool ->
  ?threshold:int ->
  ?timeout:float ->
  config ->
  piats:int ->
  result
(** Same pipeline but with a Chaum-style threshold mix ({!Padding.Batch},
    fed by the payload {!Netsim.Source}) instead of a timer gateway
    ([config.timer]/[jitter] ignored).  A flush emits [threshold]
    (default 8) packets 1 ms apart; a batch flushes when full or
    [timeout] (default 0.5 s) after its first arrival.  The batch-flush
    epochs leak the payload rate; used by the mix-vs-padding baseline.
    Raises [Invalid_argument] unless [threshold >= 1] and [timeout > 0];
    raises [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded]
    as {!run} does. *)

val run_adaptive :
  ?fresh_arena:bool ->
  ?min_period:float ->
  ?max_period:float ->
  config ->
  piats:int ->
  result
(** Same pipeline but with the Timmerman-style adaptive gateway
    ({!Padding.Kernel.adaptive}: 1 s rate window, backlog target 0.5
    packets) instead of the fixed-rate one ([config.timer] is ignored;
    [jitter] still applies).  Periods default to 10 ms / 40 ms.  Unlike
    the CIT/VIT gateway, its jitter draws see no payload arrivals in the
    IRQ blocking window ([arrivals_in_window = 0]): a model difference
    kept so that its results stay bit-identical to the event-driven
    implementation it replaced.
    Raises [Invalid_argument] unless [0 < min_period <= max_period];
    raises [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded]
    as {!run} does. *)

(** {1 The staged pipeline}

    For scenario drivers that put other stages in front of the hop
    chain, as {!Degradation} does with its wire faults. *)

type stage = {
  advance : float -> unit;  (** run to a chunk boundary *)
  out_times : Netsim.Fvec.t;
  out_tags : Netsim.Fvec.t;
      (** the chunk's (time, tag) output: tag = payload creation time,
          NaN for a dummy *)
  trace : Netsim.Tracebuf.t option;  (** whole-run deferred records *)
  chunk_events : unit -> int;  (** the event loop's events for the chunk *)
  max_pending : unit -> int;  (** share of the [desim.queue_hwm] surrogate *)
  flush : with_utilization:bool -> now:float -> unit;
      (** fold the counters into the registry, at the end of the run
          ([with_utilization]) or on starvation or a budget trip *)
}

type origin = {
  stages : stage list;  (** in pipeline order *)
  overhead : unit -> float;
  offered : unit -> int;
}
(** What a driver puts in front of the hop chain, and the accounting
    read off it after the run. *)

type streams = {
  root : Prng.Rng.t;
  payload : Prng.Rng.t;
  gateway : Prng.Rng.t;
  cross : Prng.Rng.t;
}
(** A run's streams: three splits off [Prng.Rng.create ~seed], in this
    order; [root] is left after them. *)

val kernel_stage : Padding.Kernel.t -> stage
(** The gateway kernel as a stage, with the [padding.gateway.*] counters
    and a faulty gateway's [faults.clock.*] / [faults.crash.*]. *)

val pipeline :
  scenario:string ->
  fresh_arena:bool ->
  slack:float ->
  min_chunk:float ->
  config ->
  count:int ->
  count_error:string ->
  expected_rate:float ->
  (Arena.t -> streams -> origin) ->
  result
(** [pipeline ~scenario ... cfg ~count make_origin] runs the stages
    [make_origin] sets up, then one {!Netsim.Linkstage} per hop of
    [cfg], the tap in front of hop [cfg.tap_position] and the receiver
    at the end, until the tap holds [count] post-warm-up gaps.  The run
    is traced as ["<scenario> seed=.. pps=.."]; [slack], [min_chunk] and
    [expected_rate] size the chunks ({!Starvation.drive}; the entry
    points above use 1.1 and 0.1 s).  Raises [Invalid_argument
    count_error] if [count < 1], and [Starvation.Tap_starved] /
    [Desim.Sim.Event_budget_exceeded] as {!run} does. *)
