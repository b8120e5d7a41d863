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
  let root = Prng.Rng.create ~seed:cfg.seed in
  let rng_payload = Prng.Rng.split root in
  let rng_gateway = Prng.Rng.split root in
  let rng_cross = Prng.Rng.split root in
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

let padded_event_loop arena cfg ~piats =
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

let run_event_loop ?(fresh_arena = false) cfg ~piats =
  with_arena ~scenario:"system.run" ~fresh_arena cfg ~count:piats
    ~count_error:"System.run_event_loop: piats < 1"
  @@ fun arena -> padded_event_loop arena cfg ~piats

(* The input the pipeline does not model, or [None] when it does. *)
let pipeline_gap cfg =
  if cfg.payload_model <> Poisson_payload then Some "cbr_payload"
  else if not (Fastpath.eligible_hops cfg.hops) then Some "onoff_cross"
  else None

let run ?(fresh_arena = false) cfg ~piats =
  with_arena ~scenario:"system.run" ~fresh_arena cfg ~count:piats
    ~count_error:"System.run: piats < 1"
  @@ fun arena ->
  match pipeline_gap cfg with
  | Some reason ->
      Fastpath.note_fallback ~reason;
      padded_event_loop arena cfg ~piats
  | None ->
      let o =
        Fastpath.run ~arena ~scenario:"system.run" ~seed:cfg.seed
          ~timer:cfg.timer ~jitter:cfg.jitter
          ~payload_rate_pps:cfg.payload_rate_pps ~packet_size:cfg.packet_size
          ~hops:cfg.hops ~tap_position:cfg.tap_position
          ~target:(tap_target cfg ~count:piats)
          ~expected_rate:(1.0 /. Padding.Timer.mean cfg.timer)
      in
      let piats, timestamps = observed cfg ~count:piats o.Fastpath.timestamps in
      {
        piats;
        timestamps;
        overhead = o.Fastpath.overhead;
        payload_offered = o.Fastpath.payload_offered;
        payload_delivered = o.Fastpath.payload_delivered;
        payload_dropped_gw = 0;
        mean_payload_latency = o.Fastpath.mean_payload_latency;
        sim_time = o.Fastpath.sim_time;
      }

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
