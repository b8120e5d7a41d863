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

(* Dropping the first (warmup+1) timestamps drops the first warmup PIATs;
   the chunked drive may stop a few observations past the target, so
   exactly [count] PIATs are cut from what is left. *)
let observed ~warmup ~count raw =
  let drop = warmup + 1 in
  let n = Array.length raw in
  let timestamps = if n <= drop then [||] else Array.sub raw drop (n - drop) in
  let n = Array.length timestamps in
  let piats =
    Array.init
      (Stdlib.max 0 (Stdlib.min count (n - 1)))
      (fun i -> timestamps.(i + 1) -. timestamps.(i))
  in
  (piats, timestamps)

(* [count] gaps need count + 1 timestamps after the trim drops warmup + 1
   of them; chunked running may stop exactly on target. *)
let tap_target ~warmup ~count = count + warmup + 2

(* Supervision hook: when a sweep runner installed a per-task event
   budget (Exec.Supervise.with_event_budget), arm the simulator's
   watchdog so a pathological run raises Sim.Event_budget_exceeded
   instead of spinning.  Arena reuse resets the budget on acquire. *)
let arm_event_budget sim =
  match Exec.Supervise.current_event_budget () with
  | Some max_events -> Desim.Sim.set_event_budget sim ~max_events
  | None -> ()

(* The staged pipeline behind every entry point: a front stage chosen by
   the entry point ([Padding.Kernel] for a fixed or adaptive timer
   gateway, the payload [Netsim.Source] alone or feeding a
   [Padding.Batch] mix), one [Netsim.Linkstage] per hop, and an inline
   tap and receiver.  The chunk boundaries come from [Starvation.drive],
   the arithmetic the event-loop reference runs too, so both starve,
   stop and budget-trip at identical simulated times.

   Same-instant events follow a fixed tie rule: departures first on every
   link, upstream input before a cross tick, a payload arrival and a
   timer fire in arming order, and equal trace keys in pipeline order.
   Everything observable is buffered stage-locally and flushed at the
   end — registry counters as batched adds, the ta-trace/1 stream as a
   key-ordered merge of per-stage deferred buffers — except the
   gateway's occupancy histogram, observed after each chunk. *)

let m_runs = Obs.Metrics.counter "desim.kernel.runs"

(* Registry handles for the batched flush; registration is idempotent,
   these are the same metrics the event-loop components update. *)
let m_gw_fires = Obs.Metrics.counter "padding.gateway.fires"
let m_gw_payload = Obs.Metrics.counter "padding.gateway.payload_sent"
let m_gw_dummy = Obs.Metrics.counter "padding.gateway.dummy_sent"
let h_gw_occupancy = Obs.Metrics.histogram "padding.gateway.queue_occupancy"
let m_missed = Obs.Metrics.counter "faults.clock.missed_fires"
let m_crashes = Obs.Metrics.counter "faults.crash.crashes"
let m_payload_lost = Obs.Metrics.counter "faults.crash.payload_lost"
let m_link_enqueued = Obs.Metrics.counter "netsim.link.enqueued"
let m_link_dropped = Obs.Metrics.counter "netsim.link.dropped"
let g_link_hwm = Obs.Metrics.gauge "netsim.link.queue_hwm"
let h_utilization = Obs.Metrics.histogram "netsim.link.utilization"

(* The one shape of a pipeline stage.  [advance] runs the stage to a
   chunk boundary, leaving the chunk's (time, tag) output in [out_times]
   / [out_tags]; [trace] is its whole-run deferred trace buffer, if it
   records any; [chunk_events] is what the event loop would have
   dispatched for the chunk; [max_pending] is its share of the
   event-queue-depth surrogate (its periodic event records plus its
   pending-event high-water mark); [flush] folds its counters into the
   registry at the end of the run, with the link utilization when
   [with_utilization]. *)
type stage = {
  advance : float -> unit;
  out_times : Netsim.Fvec.t;
  out_tags : Netsim.Fvec.t;
  trace : Netsim.Tracebuf.t option;
  chunk_events : unit -> int;
  max_pending : unit -> int;
  flush : with_utilization:bool -> now:float -> unit;
}

(* A timer gateway, fixed or adaptive: the payload arrivals and timer
   fires in one loop, as arming order decides their ties. *)
let kernel_stage k =
  {
    advance =
      (fun until ->
        Padding.Kernel.advance k ~until;
        (* Per chunk, not a run-long buffer: same observations, same order. *)
        let occ = Padding.Kernel.occupancy k in
        for i = 0 to Netsim.Fvec.length occ - 1 do
          Obs.Metrics.observe h_gw_occupancy (Netsim.Fvec.unsafe_get occ i)
        done);
    out_times = Padding.Kernel.out_times k;
    out_tags = Padding.Kernel.out_tags k;
    trace = Some (Padding.Kernel.trace k);
    chunk_events = (fun () -> Padding.Kernel.chunk_events k);
    (* The payload source's and the timer's periodic records. *)
    max_pending = (fun () -> 2 + Padding.Kernel.max_pending k);
    flush =
      (fun ~with_utilization:_ ~now:_ ->
        Obs.Metrics.add m_gw_fires (Padding.Kernel.fires k);
        Obs.Metrics.add m_gw_payload (Padding.Kernel.payload_sent k);
        Obs.Metrics.add m_gw_dummy (Padding.Kernel.dummy_sent k);
        (* Zero unless the gateway is faulty
           ([Padding.Kernel.configure_faulty]). *)
        Obs.Metrics.add m_missed (Padding.Kernel.missed_fires k);
        Obs.Metrics.add m_crashes (Padding.Kernel.crashes k);
        Obs.Metrics.add m_payload_lost (Padding.Kernel.payload_lost k));
  }

let source_stage src =
  {
    advance = (fun until -> Netsim.Source.advance src ~until);
    out_times = Netsim.Source.out_times src;
    out_tags = Netsim.Source.out_tags src;
    trace = None;
    chunk_events = (fun () -> Netsim.Source.chunk_events src);
    max_pending = (fun () -> 1);
    flush = (fun ~with_utilization:_ ~now:_ -> ());
  }

let batch_stage b =
  {
    advance = (fun until -> Padding.Batch.advance b ~until);
    out_times = Padding.Batch.out_times b;
    out_tags = Padding.Batch.out_tags b;
    trace = None;
    chunk_events = (fun () -> Padding.Batch.chunk_events b);
    (* The timeout record and the scheduled emissions. *)
    max_pending = (fun () -> 1 + Padding.Batch.max_pending b);
    flush = (fun ~with_utilization:_ ~now:_ -> ());
  }

let hop_stage st ~cross =
  {
    advance = (fun until -> Netsim.Linkstage.advance st ~until);
    out_times = Netsim.Linkstage.out_times st;
    out_tags = Netsim.Linkstage.out_tags st;
    trace = Some (Netsim.Linkstage.trace st);
    chunk_events = (fun () -> Netsim.Linkstage.chunk_events st);
    max_pending =
      (fun () -> (if cross then 1 else 0) + Netsim.Linkstage.max_pending st);
    flush =
      (fun ~with_utilization ~now ->
        Obs.Metrics.add m_link_enqueued (Netsim.Linkstage.enqueued st);
        Obs.Metrics.add m_link_dropped (Netsim.Linkstage.dropped st);
        let hwm = Netsim.Linkstage.queue_hwm st in
        if hwm > 0 then Obs.Metrics.observe_hwm g_link_hwm (float_of_int hwm);
        if with_utilization then
          Obs.Metrics.observe h_utilization
            (Netsim.Linkstage.utilization st ~now));
  }

(* What an entry point puts in front of the hop chain: its stages in
   pipeline order, and the accounting read off them after the run. *)
type origin = {
  stages : stage list;
  overhead : unit -> float;
  offered : unit -> int;
}

(* K-way merge of the per-stage deferred trace buffers by insertion-time
   key, then packet ordinal, replayed through the live trace sink.  Keys
   are monotone within a buffer; [bufs] is in pipeline order, and an
   equal (key, ordinal) goes to the lowest buffer index, so same-instant
   records of one packet from different stages come out in pipeline
   order. *)
let merge_traces bufs =
  let k = Array.length bufs in
  let idx = Array.make k 0 in
  let remaining = ref 0 in
  Array.iter (fun b -> remaining := !remaining + Netsim.Tracebuf.length b) bufs;
  while !remaining > 0 do
    let best = ref (-1) in
    let best_key = ref infinity in
    let best_nth = ref 0 in
    for j = 0 to k - 1 do
      if idx.(j) < Netsim.Tracebuf.length bufs.(j) then begin
        let key = Netsim.Tracebuf.key bufs.(j) idx.(j) in
        let nth = Netsim.Tracebuf.nth bufs.(j) idx.(j) in
        if
          !best < 0 || key < !best_key
          || (key = !best_key && nth < !best_nth)
        then begin
          best := j;
          best_key := key;
          best_nth := nth
        end
      end
    done;
    Netsim.Tracebuf.emit bufs.(!best) idx.(!best);
    idx.(!best) <- idx.(!best) + 1;
    remaining := !remaining - 1
  done

type streams = {
  root : Prng.Rng.t;
  payload : Prng.Rng.t;
  gateway : Prng.Rng.t;
  cross : Prng.Rng.t;
}

(* The run's payload, gateway and cross streams: three splits off the
   root, in that order, whatever the front stage uses. *)
let streams cfg =
  let root = Prng.Rng.create ~seed:cfg.seed in
  let payload = Prng.Rng.split root in
  let gateway = Prng.Rng.split root in
  { root; payload; gateway; cross = Prng.Rng.split root }

(* One run: validation, a trace run named after the [scenario], this
   domain's arena with the supervising sweep's event budget armed, the
   front stages [make_origin] configures, and the chunk loop until the
   tap holds [count] post-warm-up gaps, or [Starvation.Tap_starved]
   when padded traffic stops reaching it. *)
let pipeline ~scenario ~fresh_arena ~slack ~min_chunk cfg ~count ~count_error
    ~expected_rate make_origin =
  validate cfg;
  if count < 1 then invalid_arg count_error;
  Obs.Trace.with_run
    (Printf.sprintf "%s seed=%d pps=%g" scenario cfg.seed cfg.payload_rate_pps)
  @@ fun () ->
  let arena = Arena.get ~fresh:fresh_arena in
  let sim = arena.Arena.sim in
  arm_event_budget sim;
  let { hops; tap_position; packet_size; _ } = cfg in
  Netsim.Topology.validate ~hops ~tap_position;
  let streams = streams cfg in
  let cross_rngs = Netsim.Topology.cross_streams ~rng:streams.cross hops in
  let origin = make_origin arena streams in
  let links = Arena.kernel_hops arena (Array.length hops) in
  (* Each hop consumes the chunk output of the stage before it. *)
  let upstream = ref (List.nth origin.stages (List.length origin.stages - 1)) in
  let hop_stages =
    Array.init (Array.length hops) (fun i ->
        let h = hops.(i) in
        let cross, burst =
          match (h.Netsim.Topology.cross, cross_rngs.(i)) with
          | Some { rate_pps; size_bytes; burst }, Some rng ->
              (Some (rng, rate_pps, size_bytes), burst)
          | _ -> (None, `Poisson)
        in
        Netsim.Linkstage.configure ~burst links.(i)
          ~bandwidth_bps:h.Netsim.Topology.bandwidth_bps
          ~propagation:h.Netsim.Topology.propagation
          ~queue_limit:h.Netsim.Topology.queue_limit ~packet_size ~cross
          ~in_t:!upstream.out_times ~in_tag:!upstream.out_tags;
        upstream := hop_stage links.(i) ~cross:(cross <> None);
        !upstream)
  in
  let stages = Array.append (Array.of_list origin.stages) hop_stages in
  (* The tap observes the output of the stage in front of hop
     [tap_position]; the receiver, the last stage's. *)
  let tap_after = List.length origin.stages - 1 + tap_position in
  (* Inline tap and receiver state. *)
  Netsim.Fvec.clear arena.Arena.tap_times;
  Netsim.Tracebuf.clear arena.Arena.kernel_tap_trace;
  let tap_payload = ref 0 and tap_dummy = ref 0 in
  let payload_received = ref 0 in
  let latency_acc = Stats.Descriptive.Acc.create () in
  let size_f = float_of_int packet_size in
  (* The last observation's instant and its ordinal there: a duplicate
     reaches the tap at its original's instant. *)
  let last_seen = ref neg_infinity and nth = ref 0 in
  let absorb_tap s =
    for i = 0 to Netsim.Fvec.length s.out_times - 1 do
      let t = Netsim.Fvec.unsafe_get s.out_times i in
      let dummy = Float.is_nan (Netsim.Fvec.unsafe_get s.out_tags i) in
      if dummy then incr tap_dummy else incr tap_payload;
      if Obs.Trace.enabled () then begin
        nth := if t = !last_seen then !nth + 1 else 0;
        last_seen := t;
        Netsim.Tracebuf.push_nth arena.Arena.kernel_tap_trace ~key:t ~nth:!nth
          ~code:
            (if dummy then Netsim.Tracebuf.observe_dummy
             else Netsim.Tracebuf.observe_payload)
          ~x:size_f ~y:0.0
      end;
      Netsim.Fvec.push arena.Arena.tap_times t
    done
  in
  let absorb_receiver s =
    for i = 0 to Netsim.Fvec.length s.out_times - 1 do
      let tag = Netsim.Fvec.unsafe_get s.out_tags i in
      if not (Float.is_nan tag) then begin
        incr payload_received;
        (* Receiver.port: latency observed at the delivery event. *)
        Stats.Descriptive.Acc.add latency_acc
          (Netsim.Fvec.unsafe_get s.out_times i -. tag)
      end
    done
  in
  (* Event-queue-depth surrogate for the desim.queue_hwm gauge: each
     stage's periodic records and pending-event high-water mark.
     Deterministic per config (jobs-invariant) but NOT the event loop's
     exact interleaved depth; excluded from the differential contract. *)
  let queue_hwm_surrogate () =
    Array.fold_left (fun acc s -> acc + s.max_pending ()) 0 stages
  in
  let flush ~with_utilization ~publish ~now =
    if Obs.Trace.enabled () then
      (* Pipeline order, the tap right after the stage it observes. *)
      merge_traces
        (Array.of_list
           (List.concat
              (List.mapi
                 (fun i s ->
                   let own = Option.to_list s.trace in
                   if i = tap_after then own @ [ arena.Arena.kernel_tap_trace ]
                   else own)
                 (Array.to_list stages))));
    (* Utilization goes in chain order, as the event loop observes every
       link at the end of the run. *)
    Array.iter (fun s -> s.flush ~with_utilization ~now) stages;
    Netsim.Tap.note_batch
      ~observed:(!tap_payload + !tap_dummy)
      ~payload:!tap_payload ~dummy:!tap_dummy;
    if publish then Desim.Sim.publish_metrics sim
  in
  let advance until =
    let events =
      Array.fold_left
        (fun events s ->
          s.advance until;
          events + s.chunk_events ())
        0 stages
    in
    absorb_tap stages.(tap_after);
    absorb_receiver stages.(Array.length stages - 1);
    Desim.Sim.account_external sim ~events ~queue_hwm:(queue_hwm_surrogate ());
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
  Starvation.drive ~scenario ~slack ~min_chunk
    ~now:(fun () -> Desim.Sim.now sim)
    ~count:(fun () -> Netsim.Fvec.length arena.Arena.tap_times)
    ~advance
    ~on_starve:(fun () ->
      (* The event loop's starve path never reaches its end-of-run hook,
         so no utilization observations — flush everything else. *)
      flush ~with_utilization:false ~publish:true ~now:(Desim.Sim.now sim))
    ~target:(tap_target ~warmup:cfg.warmup_piats ~count)
    ~expected_rate ();
  let now = Desim.Sim.now sim in
  flush ~with_utilization:true ~publish:true ~now;
  Obs.Metrics.incr m_runs;
  let piats, timestamps =
    observed ~warmup:cfg.warmup_piats ~count
      (Netsim.Fvec.to_array arena.Arena.tap_times)
  in
  {
    piats;
    timestamps;
    overhead = origin.overhead ();
    payload_offered = origin.offered ();
    payload_delivered = !payload_received;
    (* No entry point sets a gateway queue limit, so no gateway drops. *)
    payload_dropped_gw = 0;
    mean_payload_latency = Stats.Descriptive.Acc.mean latency_acc;
    sim_time = now;
  }

let payload_law cfg =
  match cfg.payload_model with Poisson_payload -> `Poisson | Cbr_payload -> `Cbr

(* A timer gateway, fixed ([adaptive = None]) or adaptive. *)
let gateway ?adaptive cfg arena streams =
  let k = arena.Arena.kernel_gw in
  Padding.Kernel.configure k ?adaptive ~rng_payload:streams.payload
    ~rng_gateway:streams.gateway ~timer:cfg.timer ~jitter:cfg.jitter
    ~packet_size:cfg.packet_size ~payload_rate:cfg.payload_rate_pps
    ~payload:(payload_law cfg);
  {
    stages = [ kernel_stage k ];
    overhead = (fun () -> Padding.Kernel.overhead k);
    offered = (fun () -> Padding.Kernel.generated k);
  }

(* The payload source alone. *)
let payload_source cfg arena streams =
  let src = arena.Arena.source in
  Netsim.Source.configure src ~rng:streams.payload ~rate:cfg.payload_rate_pps
    (payload_law cfg);
  src

(* The drive constants of the System entry points. *)
let slack = 1.1
let min_chunk = 0.1

let run ?(fresh_arena = false) cfg ~piats =
  pipeline ~scenario:"system.run" ~fresh_arena ~slack ~min_chunk cfg ~count:piats
    ~count_error:"System.run: piats < 1"
    ~expected_rate:(1.0 /. Padding.Timer.mean cfg.timer)
    (gateway cfg)

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
  if threshold < 1 then invalid_arg "System.run_mix: threshold < 1";
  if timeout <= 0.0 then invalid_arg "System.run_mix: timeout <= 0";
  (* Each timeout flush emits [threshold] packets, so the slowest possible
     wire rate is threshold/timeout. *)
  pipeline ~scenario:"system.mix" ~fresh_arena ~slack ~min_chunk cfg
    ~count:piats ~count_error:"System.run_mix: piats < 1"
    ~expected_rate:(float_of_int threshold /. timeout)
    (fun arena streams ->
      let src = payload_source cfg arena streams in
      let b = arena.Arena.batch in
      Padding.Batch.configure b ~rng:streams.gateway ~threshold ~timeout
        ~spacing:1e-3 ~in_t:(Netsim.Source.out_times src)
        ~in_tag:(Netsim.Source.out_tags src);
      {
        stages = [ source_stage src; batch_stage b ];
        overhead = (fun () -> Padding.Batch.overhead b);
        offered = (fun () -> Netsim.Source.generated src);
      })

let run_adaptive ?(fresh_arena = false) ?(min_period = 0.010)
    ?(max_period = 0.040) cfg ~piats =
  if min_period <= 0.0 || max_period < min_period then
    invalid_arg "System.run_adaptive: bad period band";
  (* Worst case the adaptive gateway idles at max_period. *)
  pipeline ~scenario:"system.adaptive" ~fresh_arena ~slack ~min_chunk cfg
    ~count:piats ~count_error:"System.run_adaptive: piats < 1"
    ~expected_rate:(1.0 /. max_period)
    (gateway
       ~adaptive:
         { Padding.Kernel.min_period; max_period; window = 1.0; target_queue = 0.5 }
       cfg)

let run_unpadded ?(fresh_arena = false) cfg ~packets =
  pipeline ~scenario:"system.unpadded" ~fresh_arena ~slack ~min_chunk cfg
    ~count:packets ~count_error:"System.run_unpadded: packets < 1"
    ~expected_rate:cfg.payload_rate_pps
    (fun arena streams ->
      let src = payload_source cfg arena streams in
      {
        stages = [ source_stage src ];
        overhead = (fun () -> 0.0);
        offered = (fun () -> Netsim.Source.generated src);
      })
