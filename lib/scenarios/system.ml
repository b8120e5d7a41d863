type payload_model = Poisson_payload | Cbr_payload

type config = {
  seed : int;
  timer : Padding.Timer.law;
  jitter : Padding.Jitter.t;
  payload_rate_pps : float;
  payload_model : payload_model;
  packet_size : int;
  hops : Netsim.Topology.hop_spec array;
  tap_position : int;
  warmup_piats : int;
}

let default_config =
  {
    seed = 42;
    timer = Padding.Timer.Constant 0.010;
    jitter = Padding.Jitter.mechanistic ();
    payload_rate_pps = 10.0;
    payload_model = Poisson_payload;
    packet_size = 500;
    hops = [||];
    tap_position = 0;
    warmup_piats = 200;
  }

type result = {
  piats : float array;
  timestamps : float array;
  overhead : float;
  payload_offered : int;
  payload_delivered : int;
  payload_dropped_gw : int;
  mean_payload_latency : float;
  sim_time : float;
}

let validate cfg =
  Padding.Timer.validate cfg.timer;
  if cfg.payload_rate_pps <= 0.0 then invalid_arg "System: payload_rate <= 0";
  if cfg.packet_size <= 0 then invalid_arg "System: packet_size <= 0";
  if cfg.warmup_piats < 0 then invalid_arg "System: warmup_piats < 0"

let start_payload_source sim ~model ~rng ~rate_pps ~size_bytes ~dest =
  match model with
  | Poisson_payload ->
      Netsim.Traffic_gen.poisson sim ~rng ~rate_pps ~size_bytes
        ~kind:Netsim.Packet.Payload ~dest ()
  | Cbr_payload ->
      Netsim.Traffic_gen.cbr sim ~rate_pps ~size_bytes
        ~kind:Netsim.Packet.Payload ~dest ()

let trim_warmup cfg timestamps =
  (* Dropping the first (warmup+1) timestamps drops the first warmup PIATs. *)
  let drop = cfg.warmup_piats + 1 in
  let n = Array.length timestamps in
  if n <= drop then [||] else Array.sub timestamps drop (n - drop)

(* The post-warm-up tap times and exactly [count] PIATs from them: the
   chunked drive may stop a few observations past the target. *)
let observed cfg ~count raw =
  let timestamps = trim_warmup cfg raw in
  let n = Array.length timestamps in
  let piats =
    Array.init
      (Stdlib.max 0 (Stdlib.min count (n - 1)))
      (fun i -> timestamps.(i + 1) -. timestamps.(i))
  in
  (piats, timestamps)

(* [count] gaps need count + 1 timestamps after the trim drops warmup + 1
   of them; chunked running may stop exactly on target. *)
let tap_target cfg ~count = count + cfg.warmup_piats + 2

(* Supervision hook: when a sweep runner installed a per-task event
   budget (Exec.Supervise.with_event_budget), arm the simulator's
   watchdog so a pathological run raises Sim.Event_budget_exceeded
   instead of spinning.  Arena reuse resets the budget on acquire. *)
let arm_event_budget sim =
  match Exec.Supervise.current_event_budget () with
  | Some max_events -> Desim.Sim.set_event_budget sim ~max_events
  | None -> ()

(* The prologue every runner shares: validation, one trace run named
   after the [scenario], and this domain's arena with the supervising
   sweep's event budget armed. *)
let with_arena ~scenario ~fresh_arena cfg ~count ~count_error f =
  validate cfg;
  if count < 1 then invalid_arg count_error;
  Obs.Trace.with_run
    (Printf.sprintf "%s seed=%d pps=%g" scenario cfg.seed cfg.payload_rate_pps)
  @@ fun () ->
  let arena = Arena.get ~fresh:fresh_arena in
  arm_event_budget arena.Arena.sim;
  f arena

(* The run's payload, gateway and cross streams: three splits off the
   root, in that order, on both engines. *)
let streams cfg =
  let root = Prng.Rng.create ~seed:cfg.seed in
  let rng_payload = Prng.Rng.split root in
  let rng_gateway = Prng.Rng.split root in
  (rng_payload, rng_gateway, Prng.Rng.split root)

(* What sits between the payload source and the chain entry. *)
type front = {
  input : Netsim.Link.port;
  stop : unit -> unit;
  overhead : unit -> float;
}

(* The event-driven assembly behind every runner: source -> [front] ->
   chain -> receiver as simulator records, dispatched one event at a
   time until the tap holds [count] post-warm-up gaps, or raising
   [Starvation.Tap_starved] when padded traffic stops reaching the tap.
   The creation order (receiver, chain and its cross sources, front,
   source) fixes the event queue's seq order, so it never changes. *)
let assemble arena cfg ~scenario ~count ~expected_rate make_front =
  let sim = arena.Arena.sim in
  let rng_payload, rng_gateway, rng_cross = streams cfg in
  let receiver = Padding.Receiver.create sim () in
  let topo =
    Netsim.Topology.chain sim ~rng:rng_cross ~hops:cfg.hops
      ~tap_position:cfg.tap_position
      ~tap_buffers:(Arena.tap_buffers arena)
      ~dest:(Padding.Receiver.port receiver)
      ()
  in
  let front = make_front sim ~rng:rng_gateway ~dest:topo.Netsim.Topology.entry in
  let source =
    start_payload_source sim ~model:cfg.payload_model ~rng:rng_payload
      ~rate_pps:cfg.payload_rate_pps ~size_bytes:cfg.packet_size
      ~dest:front.input
  in
  Starvation.run_until_tap_count ~scenario ~slack:1.1 ~min_chunk:0.1 sim
    ~tap:topo.Netsim.Topology.tap ~target:(tap_target cfg ~count)
    ~expected_rate;
  Netsim.Traffic_gen.stop source;
  front.stop ();
  Netsim.Topology.stop_cross topo;
  Desim.Sim.publish_metrics sim;
  let piats, timestamps =
    observed cfg ~count (Netsim.Tap.timestamps topo.Netsim.Topology.tap)
  in
  {
    piats;
    timestamps;
    overhead = front.overhead ();
    payload_offered = Netsim.Traffic_gen.generated source;
    payload_delivered = Padding.Receiver.payload_received receiver;
    (* No runner sets a gateway queue limit, so no gateway drops. *)
    payload_dropped_gw = 0;
    mean_payload_latency = Padding.Receiver.mean_payload_latency receiver;
    sim_time = Desim.Sim.now sim;
  }

let run_event_loop ?(fresh_arena = false) cfg ~piats =
  with_arena ~scenario:"system.run" ~fresh_arena cfg ~count:piats
    ~count_error:"System.run_event_loop: piats < 1"
  @@ fun arena ->
  assemble arena cfg ~scenario:"system.run" ~count:piats
    ~expected_rate:(1.0 /. Padding.Timer.mean cfg.timer)
    (fun sim ~rng ~dest ->
      let gw =
        Padding.Gateway.create sim ~rng ~timer:cfg.timer ~jitter:cfg.jitter
          ~packet_size:cfg.packet_size ~buffers:arena.Arena.gw ~dest ()
      in
      {
        input = Padding.Gateway.input gw;
        stop = (fun () -> Padding.Gateway.stop gw);
        overhead = (fun () -> Padding.Gateway.overhead gw);
      })

(* The staged pipeline behind [run], the one engine of a padded
   no-fault run — Poisson or CBR payload, a chain whose cross traffic is
   absent, Poisson or on/off.  [Padding.Kernel] plays the gateway, one
   [Netsim.Linkstage] per hop plays link+router+cross source, and
   [pipeline] plays topology glue, tap, receiver and chunk loop.  The
   chunk boundaries come from [Starvation.drive], the very same
   arithmetic the event loop runs, so both engines starve, stop and
   budget-trip at identical simulated times.

   Same-instant events follow a fixed tie rule: departures first on every
   link (as [Netsim.Link] does on the event loop), upstream input before a
   cross tick, a payload arrival and a timer fire in arming order, and
   equal trace keys in pipeline order.  Everything observable is
   buffered stage-locally and flushed at the end — registry counters as
   batched adds, the ta-trace/1 stream as a key-ordered merge of
   per-stage deferred buffers — except the gateway's occupancy
   histogram, observed after each chunk. *)

let m_runs = Obs.Metrics.counter "desim.kernel.runs"

(* Registry handles for the batched flush; registration is idempotent,
   these are the same metrics the event-loop components update. *)
let m_gw_fires = Obs.Metrics.counter "padding.gateway.fires"
let m_gw_payload = Obs.Metrics.counter "padding.gateway.payload_sent"
let m_gw_dummy = Obs.Metrics.counter "padding.gateway.dummy_sent"
let h_gw_occupancy = Obs.Metrics.histogram "padding.gateway.queue_occupancy"
let m_link_enqueued = Obs.Metrics.counter "netsim.link.enqueued"
let m_link_dropped = Obs.Metrics.counter "netsim.link.dropped"
let g_link_hwm = Obs.Metrics.gauge "netsim.link.queue_hwm"
let h_utilization = Obs.Metrics.histogram "netsim.link.utilization"

(* K-way merge of the per-stage deferred trace buffers by insertion-time
   key, replayed through the live trace sink.  Keys are monotone within
   a buffer; [bufs] is in pipeline order, and an equal key goes to the
   lowest buffer index, so same-instant records from different stages
   come out in pipeline order. *)
let merge_traces bufs =
  let k = Array.length bufs in
  let idx = Array.make k 0 in
  let remaining = ref 0 in
  Array.iter (fun b -> remaining := !remaining + Netsim.Tracebuf.length b) bufs;
  while !remaining > 0 do
    let best = ref (-1) in
    let best_key = ref infinity in
    for j = 0 to k - 1 do
      if idx.(j) < Netsim.Tracebuf.length bufs.(j) then begin
        let key = Netsim.Tracebuf.key bufs.(j) idx.(j) in
        if !best < 0 || key < !best_key then begin
          best := j;
          best_key := key
        end
      end
    done;
    Netsim.Tracebuf.emit bufs.(!best) idx.(!best);
    idx.(!best) <- idx.(!best) + 1;
    remaining := !remaining - 1
  done

let pipeline arena cfg ~piats =
  let { hops; tap_position; packet_size; _ } = cfg in
  Netsim.Topology.validate ~hops ~tap_position;
  let n = Array.length hops in
  let sim = arena.Arena.sim in
  let rng_payload, rng_gateway, rng_cross = streams cfg in
  let cross_rngs = Netsim.Topology.cross_streams ~rng:rng_cross hops in
  let kgw = arena.Arena.kernel_gw in
  Padding.Kernel.configure kgw ~rng_payload ~rng_gateway ~timer:cfg.timer
    ~jitter:cfg.jitter ~packet_size ~payload_rate:cfg.payload_rate_pps
    ~payload:
      (match cfg.payload_model with
      | Poisson_payload -> `Poisson
      | Cbr_payload -> `Cbr);
  let stages = Arena.kernel_hops arena n in
  let in_t = ref (Padding.Kernel.out_times kgw) in
  let in_tag = ref (Padding.Kernel.out_tags kgw) in
  for i = 0 to n - 1 do
    let h = hops.(i) in
    let cross, burst =
      match (h.Netsim.Topology.cross, cross_rngs.(i)) with
      | Some { rate_pps; size_bytes; burst }, Some rng ->
          (Some (rng, rate_pps, size_bytes), burst)
      | _ -> (None, `Poisson)
    in
    Netsim.Linkstage.configure ~burst stages.(i)
      ~bandwidth_bps:h.Netsim.Topology.bandwidth_bps
      ~propagation:h.Netsim.Topology.propagation
      ~queue_limit:h.Netsim.Topology.queue_limit ~packet_size ~cross
      ~in_t:!in_t ~in_tag:!in_tag;
    in_t := Netsim.Linkstage.out_times stages.(i);
    in_tag := Netsim.Linkstage.out_tags stages.(i)
  done;
  (* Inline tap and receiver state. *)
  Netsim.Fvec.clear arena.Arena.tap_times;
  Netsim.Fvec.clear arena.Arena.tap_sizes;
  Netsim.Tracebuf.clear arena.Arena.kernel_tap_trace;
  let tap_payload = ref 0 and tap_dummy = ref 0 in
  let payload_received = ref 0 and dummy_received = ref 0 in
  let latency_acc = Stats.Descriptive.Acc.create () in
  let size_f = float_of_int packet_size in
  let absorb_tap times tags =
    let len = Netsim.Fvec.length times in
    for i = 0 to len - 1 do
      let t = Netsim.Fvec.unsafe_get times i in
      let tag = Netsim.Fvec.unsafe_get tags i in
      let dummy = Float.is_nan tag in
      if dummy then incr tap_dummy else incr tap_payload;
      if Obs.Trace.enabled () then
        Netsim.Tracebuf.push arena.Arena.kernel_tap_trace ~key:t
          ~code:
            (if dummy then Netsim.Tracebuf.observe_dummy
             else Netsim.Tracebuf.observe_payload)
          ~x:size_f ~y:0.0;
      Netsim.Fvec.push arena.Arena.tap_times t;
      Netsim.Fvec.push arena.Arena.tap_sizes size_f
    done
  in
  let absorb_receiver times tags =
    let len = Netsim.Fvec.length times in
    for i = 0 to len - 1 do
      let t = Netsim.Fvec.unsafe_get times i in
      let tag = Netsim.Fvec.unsafe_get tags i in
      if Float.is_nan tag then incr dummy_received
      else begin
        incr payload_received;
        (* Receiver.port: latency observed at the delivery event. *)
        Stats.Descriptive.Acc.add latency_acc (t -. tag)
      end
    done
  in
  (* Event-queue-depth surrogate for the desim.queue_hwm gauge: the two
     periodic source records plus one per cross source, plus the pending
     emission / in-flight transmission high-water marks.  Deterministic
     per config (jobs-invariant) but NOT the event loop's exact
     interleaved depth; excluded from the differential contract. *)
  let n_cross =
    Array.fold_left
      (fun acc (h : Netsim.Topology.hop_spec) ->
        if h.Netsim.Topology.cross = None then acc else acc + 1)
      0 hops
  in
  let queue_hwm_surrogate () =
    let acc = ref (2 + n_cross + Padding.Kernel.max_pending kgw) in
    for i = 0 to n - 1 do
      acc := !acc + Netsim.Linkstage.max_pending stages.(i)
    done;
    !acc
  in
  let flush ~with_utilization ~publish ~now =
    if Obs.Trace.enabled () then
      (* Pipeline order: gateway, hops before the tap, tap, hops after. *)
      merge_traces
        (Array.init (n + 2) (fun i ->
             if i = 0 then Padding.Kernel.trace kgw
             else if i = tap_position + 1 then arena.Arena.kernel_tap_trace
             else if i <= tap_position then Netsim.Linkstage.trace stages.(i - 1)
             else Netsim.Linkstage.trace stages.(i - 2)));
    Obs.Metrics.add m_gw_fires (Padding.Kernel.fires kgw);
    Obs.Metrics.add m_gw_payload (Padding.Kernel.payload_sent kgw);
    Obs.Metrics.add m_gw_dummy (Padding.Kernel.dummy_sent kgw);
    for i = 0 to n - 1 do
      let st = stages.(i) in
      Obs.Metrics.add m_link_enqueued (Netsim.Linkstage.enqueued st);
      Obs.Metrics.add m_link_dropped (Netsim.Linkstage.dropped st);
      let hwm = Netsim.Linkstage.queue_hwm st in
      if hwm > 0 then Obs.Metrics.observe_hwm g_link_hwm (float_of_int hwm)
    done;
    if with_utilization then
      (* Topology.stop_cross observes every router, in chain order. *)
      for i = 0 to n - 1 do
        Obs.Metrics.observe h_utilization
          (Netsim.Linkstage.utilization stages.(i) ~now)
      done;
    Netsim.Tap.note_batch
      ~observed:(!tap_payload + !tap_dummy)
      ~payload:!tap_payload ~dummy:!tap_dummy;
    if publish then Desim.Sim.publish_metrics sim
  in
  let advance until =
    Padding.Kernel.advance kgw ~until;
    (* Per chunk, not a run-long buffer: same observations, same order. *)
    let occ = Padding.Kernel.occupancy kgw in
    for i = 0 to Netsim.Fvec.length occ - 1 do
      Obs.Metrics.observe h_gw_occupancy (Netsim.Fvec.unsafe_get occ i)
    done;
    let events = ref (Padding.Kernel.chunk_events kgw) in
    if tap_position = 0 then
      absorb_tap (Padding.Kernel.out_times kgw) (Padding.Kernel.out_tags kgw);
    for i = 0 to n - 1 do
      Netsim.Linkstage.advance stages.(i) ~until;
      events := !events + Netsim.Linkstage.chunk_events stages.(i);
      if tap_position = i + 1 then
        absorb_tap
          (Netsim.Linkstage.out_times stages.(i))
          (Netsim.Linkstage.out_tags stages.(i))
    done;
    (if n = 0 then
       absorb_receiver (Padding.Kernel.out_times kgw)
         (Padding.Kernel.out_tags kgw)
     else
       absorb_receiver
         (Netsim.Linkstage.out_times stages.(n - 1))
         (Netsim.Linkstage.out_tags stages.(n - 1)));
    Desim.Sim.account_external sim ~events:!events
      ~queue_hwm:(queue_hwm_surrogate ());
    (* Advances the clock to the chunk boundary and enforces the event
       budget with the event loop's chunk granularity and totals.  On a
       budget trip, flush what the event loop would already have
       published incrementally (no [publish_metrics] — the event loop
       does not publish on this path either), then re-raise. *)
    try Desim.Sim.run_until sim ~time:until
    with Desim.Sim.Event_budget_exceeded _ as e ->
      flush ~with_utilization:false ~publish:false ~now:(Desim.Sim.now sim);
      raise e
  in
  Starvation.drive ~scenario:"system.run" ~slack:1.1 ~min_chunk:0.1
    ~now:(fun () -> Desim.Sim.now sim)
    ~count:(fun () -> Netsim.Fvec.length arena.Arena.tap_times)
    ~advance
    ~on_starve:(fun () ->
      (* The event loop's starve path never reaches stop_cross, so no
         utilization observations — flush everything else. *)
      flush ~with_utilization:false ~publish:true ~now:(Desim.Sim.now sim))
    ~target:(tap_target cfg ~count:piats)
    ~expected_rate:(1.0 /. Padding.Timer.mean cfg.timer)
    ();
  let now = Desim.Sim.now sim in
  flush ~with_utilization:true ~publish:true ~now;
  Obs.Metrics.incr m_runs;
  let piats, timestamps =
    observed cfg ~count:piats (Netsim.Fvec.to_array arena.Arena.tap_times)
  in
  {
    piats;
    timestamps;
    overhead = Padding.Kernel.overhead kgw;
    payload_offered = Padding.Kernel.generated kgw;
    payload_delivered = !payload_received;
    payload_dropped_gw = 0;
    mean_payload_latency = Stats.Descriptive.Acc.mean latency_acc;
    sim_time = now;
  }

let run ?(fresh_arena = false) cfg ~piats =
  with_arena ~scenario:"system.run" ~fresh_arena cfg ~count:piats
    ~count_error:"System.run: piats < 1"
  @@ fun arena -> pipeline arena cfg ~piats

(* Intra-run domain sharding: one logical PIAT collection split into
   [shards] independent simulations with index-derived seeds, fanned out
   on [Exec.Pool] and merged in shard order.  The decomposition is a
   property of the run (the shard count and per-shard seeds never depend
   on the worker count), so the merged result is byte-identical at any
   [--jobs] — workers only change who executes which shard, never what a
   shard computes. *)
let run_sharded ?(fresh_arena = false) ?jobs ?(shards = 1) cfg ~piats =
  if shards < 1 then invalid_arg "System.run_sharded: shards < 1";
  if piats < shards then invalid_arg "System.run_sharded: piats < shards";
  if shards = 1 then run ~fresh_arena cfg ~piats
  else begin
    let chunk = (piats + shards - 1) / shards in
    let results =
      Exec.Pool.parallel_init ?jobs shards (fun i ->
          let piats_i = Stdlib.min chunk (piats - (i * chunk)) in
          run ~fresh_arena
            { cfg with seed = Prng.Rng.mix_seed cfg.seed i }
            ~piats:piats_i)
    in
    let total_piats =
      Array.fold_left (fun acc r -> acc + Array.length r.piats) 0 results
    in
    let piats_arr = Array.make total_piats 0.0 in
    let pos = ref 0 in
    Array.iter
      (fun r ->
        Array.blit r.piats 0 piats_arr !pos (Array.length r.piats);
        pos := !pos + Array.length r.piats)
      results;
    let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
    let sim_time = Array.fold_left (fun acc r -> acc +. r.sim_time) 0.0 results in
    (* Ratio metrics merge weighted: overhead by each shard's simulated
       time, latency by the payload packets actually delivered. *)
    let weighted num den =
      let d = Array.fold_left (fun acc r -> acc +. den r) 0.0 results in
      if d = 0.0 then 0.0
      else Array.fold_left (fun acc r -> acc +. (num r *. den r)) 0.0 results /. d
    in
    {
      piats = piats_arr;
      (* Per-shard clocks restart at 0; a concatenated timestamp series
         would be non-monotonic and meaningless, so the merged result
         carries none. *)
      timestamps = [||];
      overhead = weighted (fun r -> r.overhead) (fun r -> r.sim_time);
      payload_offered = sum (fun r -> r.payload_offered);
      payload_delivered = sum (fun r -> r.payload_delivered);
      payload_dropped_gw = sum (fun r -> r.payload_dropped_gw);
      mean_payload_latency =
        weighted
          (fun r -> r.mean_payload_latency)
          (fun r -> float_of_int r.payload_delivered);
      sim_time;
    }
  end

let run_mix ?(fresh_arena = false) ?(threshold = 8) ?(timeout = 0.5) cfg
    ~piats =
  with_arena ~scenario:"system.mix" ~fresh_arena cfg ~count:piats
    ~count_error:"System.run_mix: piats < 1"
  @@ fun arena ->
  (* Each timeout flush emits [threshold] packets, so the slowest possible
     wire rate is threshold/timeout. *)
  assemble arena cfg ~scenario:"system.mix" ~count:piats
    ~expected_rate:(float_of_int threshold /. timeout)
    (fun sim ~rng ~dest ->
      let mix =
        Padding.Mix.create sim ~rng ~threshold ~timeout
          ~packet_size:cfg.packet_size ~dest ()
      in
      {
        input = Padding.Mix.input mix;
        stop = (fun () -> Padding.Mix.stop mix);
        overhead = (fun () -> Padding.Mix.overhead mix);
      })

let run_adaptive ?(fresh_arena = false) ?(min_period = 0.010)
    ?(max_period = 0.040) cfg ~piats =
  with_arena ~scenario:"system.adaptive" ~fresh_arena cfg ~count:piats
    ~count_error:"System.run_adaptive: piats < 1"
  @@ fun arena ->
  (* Worst case the adaptive gateway idles at max_period. *)
  assemble arena cfg ~scenario:"system.adaptive" ~count:piats
    ~expected_rate:(1.0 /. max_period)
    (fun sim ~rng ~dest ->
      let gw =
        Padding.Adaptive.create sim ~rng ~min_period ~max_period
          ~jitter:cfg.jitter ~packet_size:cfg.packet_size
          ~buffers:arena.Arena.gw ~dest ()
      in
      {
        input = Padding.Adaptive.input gw;
        stop = (fun () -> Padding.Adaptive.stop gw);
        overhead = (fun () -> Padding.Adaptive.overhead gw);
      })

let run_unpadded ?(fresh_arena = false) cfg ~packets =
  with_arena ~scenario:"system.unpadded" ~fresh_arena cfg ~count:packets
    ~count_error:"System.run_unpadded: packets < 1"
  @@ fun arena ->
  assemble arena cfg ~scenario:"system.unpadded" ~count:packets
    ~expected_rate:cfg.payload_rate_pps (fun _sim ~rng:_ ~dest ->
      { input = dest; stop = ignore; overhead = (fun () -> 0.0) })
