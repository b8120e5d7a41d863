(* Staged pipeline: the differential contract.

   [System.run]'s pipeline must be observably indistinguishable
   from [Evloop.Event_loop.run_event_loop] — same RNG draws in the same order,
   bit-identical result fields, metric totals and ta-trace/1 bytes, at
   any worker count, through checkpoint/resume.  Both engines follow one
   tie rule for same-instant events (departures first on every link,
   equal trace keys in pipeline order), so the configurations whose
   event times sit on a lattice are in the set too.  Plus property tests
   for the batched variate generator and the geometric boundary the
   kernel work surfaced. *)

module System = Scenarios.System

let with_jobs jobs f =
  Exec.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Exec.Pool.set_default_jobs 1) f

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Sampler.exponential_fill: bit-equality and validation --- *)

let test_exponential_fill_bit_equality () =
  List.iter
    (fun (seed, rate) ->
      let n = 100_000 in
      let scalar_rng = Prng.Rng.create ~seed in
      let fill_rng = Prng.Rng.create ~seed in
      let buf = Float.Array.create n in
      Prng.Sampler.exponential_fill fill_rng ~rate buf ~n;
      for i = 0 to n - 1 do
        let s = Prng.Sampler.exponential scalar_rng ~rate in
        if
          Int64.bits_of_float s
          <> Int64.bits_of_float (Float.Array.get buf i)
        then
          Alcotest.failf "seed=%d rate=%g draw %d: scalar %h <> fill %h" seed
            rate i s (Float.Array.get buf i)
      done)
    [ (1, 10.0); (7, 0.5); (42, 1e4); (12345, 1.0) ]

let test_exponential_fill_partial () =
  (* Filling a prefix must consume exactly n draws and leave the tail
     untouched. *)
  let rng_a = Prng.Rng.create ~seed:9 in
  let rng_b = Prng.Rng.create ~seed:9 in
  let buf = Float.Array.make 64 (-1.0) in
  Prng.Sampler.exponential_fill rng_a ~rate:2.0 buf ~n:10;
  for i = 10 to 63 do
    Alcotest.(check (float 0.0))
      "tail untouched" (-1.0)
      (Float.Array.get buf i)
  done;
  Alcotest.(check (float 0.0))
    "stream position = 10 scalar draws"
    (let rec skip k = if k = 0 then () else (ignore (Prng.Sampler.exponential rng_b ~rate:2.0); skip (k - 1)) in
     skip 10;
     Prng.Sampler.exponential rng_b ~rate:2.0)
    (Prng.Sampler.exponential rng_a ~rate:2.0)

let expect_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_exponential_fill_invalid () =
  let rng = Prng.Rng.create ~seed:1 in
  let buf = Float.Array.create 8 in
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:0.0 buf ~n:8);
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:(-1.0) buf ~n:8);
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:Float.nan buf ~n:8);
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:1.0 buf ~n:0);
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:1.0 buf ~n:9);
  expect_invalid (fun () ->
      Prng.Sampler.exponential_fill rng ~rate:1.0 (Float.Array.create 0) ~n:0)

(* --- geometric boundary: p = 1 and NaN (regression) --- *)

let test_geometric_boundary () =
  let rng = Prng.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    Alcotest.(check int)
      "p = 1 always succeeds immediately" 0
      (Prng.Sampler.geometric rng ~p:1.0)
  done;
  (* p just below 1 still almost always returns 0 and never negative. *)
  for _ = 1 to 1000 do
    let k = Prng.Sampler.geometric rng ~p:0.999999 in
    if k < 0 then Alcotest.failf "negative geometric draw %d" k
  done;
  expect_invalid (fun () -> Prng.Sampler.geometric rng ~p:Float.nan);
  expect_invalid (fun () -> Prng.Sampler.geometric rng ~p:0.0);
  expect_invalid (fun () -> Prng.Sampler.geometric rng ~p:1.0000001)

(* --- the differential suite --- *)

let hop ?(bw = 1_000_000.0) ?(prop = 0.0) ?qlimit ?cross () =
  {
    Netsim.Topology.bandwidth_bps = bw;
    propagation = prop;
    queue_limit = qlimit;
    cross;
  }

let poisson_cross rate_pps =
  { Netsim.Topology.rate_pps; size_bytes = 400; burst = `Poisson }

let onoff_cross =
  {
    Netsim.Topology.rate_pps = 100.0;
    size_bytes = 400;
    burst = `On_off (0.1, 0.4, None);
  }

(* Trace comparison per configuration: byte-identical, or — only where
   every event time sits on one lattice and the event loop's dispatch
   order among equal-timestamp lines of different stages is its
   scheduling order — the same multiset of lines. *)
type trace_check = Bytes | Multiset

let cbr rate =
  {
    System.default_config with
    payload_model = System.Cbr_payload;
    payload_rate_pps = rate;
  }

let chain_loaded_hops =
  [|
    hop ();
    hop ~prop:0.002 ~cross:(poisson_cross 150.0) ();
    hop ~bw:400_000.0 ~qlimit:3 ~cross:(poisson_cross 200.0) ();
  |]

(* Every pipeline configuration shape: CIT and all VIT laws, all jitter
   models, no hops / loaded chain / mid-chain tap / propagation /
   queue-limit drops, plus the shapes whose ties the shared rule orders:
   - cit_nohops is the default config; traced, a fire and the tap
     observation of its emission share a trace key whenever the
     mechanistic latency clamps to 0;
   - chain_midtap: a Poisson-cross hop followed by two equal-rate plain
     hops, so queued packets leave back to back and land on the next
     hop exactly as the previous one finishes;
   - lattice_chain: jitterless CIT with timer period = transmit time =
     propagation, every event time on one lattice;
   - lattice_qlimit2: jitterless CIT into a queue_limit 2 hop whose
     Poisson cross packets have the padded size and transmit time = timer
     period, so drops land on the instants the tap observes departures;
   - tandem_qlimit1: chain_midtap's shape with queue_limit 1 on the
     plain hops, where departures first decides accept vs drop, and a
     slower last hop that drops;
   - fig8b WAN paths at 04:00 and 16:00;
   - CBR payload under CIT 10 ms, whose arrivals land exactly on timer
     fires now and then (at 10 pps first at 17.8 s, hence the longer
     run; at 40 pps at 0.05 s and 0.15 s; at 100 pps on every fire; at
     200 pps at 0.01, 0.02, 0.04 and 0.08 s), where the kernel breaks an
     arrival/fire tie by arming order, and CBR through chain_loaded's
     hops;
   - on/off cross traffic, exponential and Pareto phases, on a hop it
     loads past capacity while on. *)
let configs =
  let base = System.default_config in
  let wan hour =
    let hops = Scenarios.Fig8.hops_for Scenarios.Fig8.Wan ~hour in
    (* ~78k cross packets per simulated second: keep the runs short. *)
    { base with hops; tap_position = Array.length hops; warmup_piats = 10 }
  in
  [
    ("cit_nohops", base, 400, Bytes);
    ( "cit_fast_jitterless",
      {
        base with
        timer = Padding.Timer.Constant 0.002;
        jitter = Padding.Jitter.none;
        payload_rate_pps = 300.0;
      },
      400,
      Bytes );
    ( "vit_normal",
      {
        base with
        timer = Padding.Timer.Normal { mean = 0.010; sigma = 0.002 };
        jitter = Padding.Jitter.parametric ~mu:5e-5 ~sigma:8e-6;
      },
      400,
      Bytes );
    ( "vit_uniform",
      {
        base with
        timer = Padding.Timer.Uniform { mean = 0.010; half_width = 0.004 };
      },
      400,
      Bytes );
    ( "vit_exponential",
      { base with timer = Padding.Timer.Exponential { mean = 0.012 } },
      400,
      Bytes );
    ( "chain_loaded",
      { base with hops = chain_loaded_hops; tap_position = 3 },
      400,
      Bytes );
    ( "chain_midtap",
      {
        base with
        hops = [| hop ~cross:(poisson_cross 120.0) (); hop (); hop () |];
        tap_position = 1;
      },
      400,
      Bytes );
    ( "lattice_chain",
      {
        base with
        jitter = Padding.Jitter.none;
        (* 500 B at 400 kb/s: transmit time = timer period = 10 ms. *)
        hops =
          Array.init 3 (fun _ -> hop ~bw:400_000.0 ~prop:0.010 ());
        tap_position = 3;
      },
      400,
      Multiset );
    ( "lattice_qlimit2",
      {
        base with
        jitter = Padding.Jitter.none;
        hops =
          [|
            hop ~bw:400_000.0 ~qlimit:2
              ~cross:
                { Netsim.Topology.rate_pps = 30.0; size_bytes = 500; burst = `Poisson }
              ();
          |];
        tap_position = 1;
      },
      400,
      Multiset );
    ( "tandem_qlimit1",
      {
        base with
        hops =
          [|
            hop ~cross:(poisson_cross 120.0) ();
            hop ~qlimit:1 ();
            hop ~bw:800_000.0 ~qlimit:1 ();
          |];
        tap_position = 2;
      },
      400,
      Bytes );
    ("fig8b_wan_0400", wan 4.0, 40, Bytes);
    ("fig8b_wan_1600", wan 16.0, 40, Bytes);
    ("cbr_10pps", cbr 10.0, 2000, Bytes);
    ("cbr_40pps", cbr 40.0, 400, Bytes);
    ("cbr_100pps", cbr 100.0, 400, Bytes);
    ("cbr_200pps", cbr 200.0, 400, Bytes);
    ( "cbr_chain_loaded",
      { (cbr 40.0) with hops = chain_loaded_hops; tap_position = 3 },
      400,
      Bytes );
    ( "onoff_cross",
      { base with hops = [| hop ~cross:onoff_cross () |]; tap_position = 1 },
      400,
      Bytes );
    ( "onoff_pareto_cross",
      {
        base with
        hops =
          [|
            hop
              ~cross:{ onoff_cross with burst = `On_off (0.05, 0.2, Some 1.5) }
              ();
          |];
        tap_position = 1;
      },
      400,
      Bytes );
  ]

let config name =
  List.find_map (fun (n, cfg, _, _) -> if n = name then Some cfg else None) configs
  |> Option.get

let seeds = List.init 10 (fun i -> 1 + (97 * i))

let filtered_snapshot () =
  (* The event-queue-depth gauge has a documented deterministic surrogate
     on the pipeline, and the kernel.* counters record which path ran —
     everything else must match exactly. *)
  Obs.Metrics.snapshot ()
  |> List.filter (fun (name, _) ->
         name <> "desim.queue_hwm"
         && not
              (String.length name >= 12
              && String.sub name 0 12 = "desim.kernel"))

let snapshot_str () =
  Format.asprintf "%a" Obs.Metrics.Snapshot.pp (filtered_snapshot ())

let counter name =
  Obs.Metrics.Snapshot.counter_value (Obs.Metrics.snapshot ()) name

let kernel_runs () = counter "desim.kernel.runs"

(* [f ()] with the ta-trace/1 stream captured; returns its bytes. *)
let capture_trace f =
  let path = Filename.temp_file "kernel_trace" ".jsonl" in
  Obs.Trace.enable ~path;
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.disable ())
      (fun () ->
        let r = f () in
        Obs.Trace.flush ();
        r)
  in
  let body = read_file path in
  Sys.remove path;
  (r, body)

(* One run on [engine] from a clean registry: result, filtered metric
   snapshot, pipeline runs counted, and the trace bytes when [traced]. *)
let run_on engine ~traced cfg ~piats =
  Obs.Metrics.reset ();
  let go () = engine ?fresh_arena:(Some true) cfg ~piats in
  let r, trace = if traced then capture_trace go else (go (), "") in
  (r, snapshot_str (), kernel_runs (), trace)

let check_results_equal name (rk : System.result) (re : System.result) =
  (* compare, not (=): mean latency can legitimately be computed from
     zero samples in degenerate configs, and nan <> nan under (=). *)
  if Stdlib.compare rk re <> 0 then
    Alcotest.failf "%s: pipeline and event-loop results differ" name

let sorted_lines s = List.sort compare (String.split_on_char '\n' s)

let differential ~traced =
  List.iter
    (fun (name, cfg, piats, check) ->
      List.iter
        (fun seed ->
          let cfg = { cfg with System.seed } in
          let name = Printf.sprintf "%s seed=%d traced=%b" name seed traced in
          let rk, sk, kruns, tk = run_on System.run ~traced cfg ~piats in
          let re, se, _, te =
            run_on Evloop.Event_loop.run_event_loop ~traced cfg ~piats
          in
          check_results_equal name rk re;
          Alcotest.(check int) (name ^ ": exactly piats") piats
            (Array.length rk.System.piats);
          Alcotest.(check string) (name ^ ": metric totals") se sk;
          Alcotest.(check int) (name ^ ": pipeline ran") 1 kruns;
          if traced then begin
            Alcotest.(check bool) (name ^ ": trace non-trivial") true
              (List.length (String.split_on_char '\n' tk) > piats);
            match check with
            | Bytes -> Alcotest.(check string) (name ^ ": trace bytes") te tk
            | Multiset ->
                Alcotest.(check (list string))
                  (name ^ ": trace lines") (sorted_lines te) (sorted_lines tk)
          end)
        seeds)
    configs

let test_differential_results () = differential ~traced:false
let test_differential_trace () = differential ~traced:true

let test_default_trace_shares_keys () =
  (* The traced default config does exercise the trace-key rank: some
     timer.fire and tap.observe lines carry the same timestamp. *)
  let stamps name body =
    String.split_on_char '\n' body
    |> List.filter_map (fun line ->
           if not (Str.string_match (Str.regexp (".*\"" ^ name ^ "\"")) line 0)
           then None
           else if Str.string_match (Str.regexp ".*\"t\":\\([^,}]*\\)") line 0
           then Some (Str.matched_group 1 line)
           else None)
  in
  let shared =
    List.exists
      (fun seed ->
        let _, body =
          capture_trace (fun () ->
              System.run ~fresh_arena:true
                { System.default_config with seed }
                ~piats:400)
        in
        let fires = stamps "timer.fire" body in
        List.exists (fun t -> List.mem t fires) (stamps "tap.observe" body))
      seeds
  in
  Alcotest.(check bool) "fire and tap observation share a key" true shared

let test_differential_sharded_jobs () =
  (* One logical collection split across 8 shards on the pipeline:
     byte-identical at jobs 1, 2 and 8, and shard by shard the same PIATs
     as the event loop. *)
  let cfg = config "chain_loaded" in
  let run jobs =
    Obs.Metrics.reset ();
    with_jobs jobs (fun () -> System.run_sharded ~shards:8 cfg ~piats:320)
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      if Stdlib.compare reference (run jobs) <> 0 then
        Alcotest.failf "jobs=%d differs from jobs=1" jobs)
    [ 2; 8 ];
  let evloop =
    Array.concat
      (List.init 8 (fun i ->
           (Evloop.Event_loop.run_event_loop
              { cfg with seed = Prng.Rng.mix_seed cfg.System.seed i }
              ~piats:40)
             .System.piats))
  in
  if Stdlib.compare reference.System.piats evloop <> 0 then
    Alcotest.fail "sharded pipeline PIATs differ from the event loop's"

let test_kernel_runs_counted () =
  (* CBR payload and on/off cross run on the pipeline like every other
     input: one desim.kernel.runs per System.run call. *)
  Obs.Metrics.reset ();
  let names =
    [ "cbr_100pps"; "cbr_chain_loaded"; "onoff_cross"; "onoff_pareto_cross" ]
  in
  List.iter
    (fun name -> ignore (System.run (config name) ~piats:50 : System.result))
    names;
  Alcotest.(check int)
    "one pipeline run per call" (List.length names) (kernel_runs ())

let test_checkpoint_resume_mixed_paths () =
  (* Kill-resume through Sweep.mapi: half the points journaled by a
     pipeline run, the rest computed after resume on the event loop (and
     vice versa) must reproduce the uninterrupted tables. *)
  let module Sweep = Scenarios.Sweep in
  let points = [ 0; 1; 2; 3 ] in
  let task kernel ~attempt:_ i x =
    let cfg = { (config "chain_loaded") with seed = 100 + (7 * x) } in
    let run = if kernel then System.run else Evloop.Event_loop.run_event_loop in
    let r = run cfg ~piats:200 in
    (i, r.System.piats, r.System.overhead, r.System.mean_payload_latency)
  in
  let with_temp_dir f =
    let dir = Filename.temp_file "ta_kernel_ckpt" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists dir then begin
          Array.iter
            (fun name -> Sys.remove (Filename.concat dir name))
            (Sys.readdir dir);
          Sys.rmdir dir
        end)
      (fun () -> f dir)
  in
  let reset_sweep () =
    Sweep.set_checkpoint_dir None;
    Sweep.clear_failures ()
  in
  Fun.protect ~finally:reset_sweep @@ fun () ->
  let uninterrupted =
    reset_sweep ();
    Sweep.ok_values
      (Sweep.mapi ~sweep:"kernel.ckpt" ~digest:"d" ~seed:1 ~task:(task true)
         points)
  in
  List.iter
    (fun (first_kernel, resume_kernel) ->
      with_temp_dir (fun dir ->
          reset_sweep ();
          Sweep.set_checkpoint_dir (Some dir);
          (* First process journals only the first two points ("killed"
             after a partial run). *)
          let _partial =
            Sweep.mapi ~sweep:"kernel.ckpt" ~digest:"d" ~seed:1
              ~task:(task first_kernel) [ 0; 1 ]
          in
          (* Second process resumes the full sweep on the other path:
             journaled points replay, missing ones compute fresh. *)
          let resumed =
            Sweep.ok_values
              (Sweep.mapi ~sweep:"kernel.ckpt" ~digest:"d" ~seed:1
                 ~task:(task resume_kernel) points)
          in
          if Stdlib.compare uninterrupted resumed <> 0 then
            Alcotest.failf
              "resume (first=%b resume=%b) differs from uninterrupted run"
              first_kernel resume_kernel))
    [ (true, false); (false, true) ]

let test_onoff_validation () =
  (* Both engines reject a bad on/off spec in Topology.validate, before
     any source starts, with the same message. *)
  let run_both burst =
    let cfg =
      {
        System.default_config with
        hops = [| hop ~cross:{ onoff_cross with burst } () |];
        tap_position = 1;
      }
    in
    let outcome engine =
      match engine ?fresh_arena:None cfg ~piats:10 with
      | exception Invalid_argument msg -> msg
      | _ -> "accepted"
    in
    (outcome System.run, outcome Evloop.Event_loop.run_event_loop)
  in
  List.iter
    (fun (burst, msg) ->
      let on_pipeline, on_event_loop = run_both burst in
      Alcotest.(check string) "pipeline" msg on_pipeline;
      Alcotest.(check string) "event loop" msg on_event_loop)
    (let means = "Topology.chain: on/off period means must be positive" in
     [
       (`On_off (0.0, 0.4, None), means);
       (`On_off (0.1, -1.0, None), means);
       (`On_off (0.1, Float.nan, None), means);
       (`On_off (0.1, 0.4, Some 1.0), "Topology.chain: pareto_shape <= 1");
     ])

(* --- oracles that do not compare the two engines --- *)

(* [f ()] and the change of counter [name] across it. *)
let counter_delta name f =
  let before = counter name in
  let r = f () in
  (r, counter name - before)

let prop_cbr_cit =
  (* CBR payload at rate λ <= 1/τ under CIT τ: the tap PIATs telescope
     to τ plus the difference of two gateway latencies (µs-scale, < 1 ms)
     over n, and each fire sends the queued payload if there is one, so
     the dummy count is the fire count minus the arrivals it served:
     (1 − λτ)·fires to within one packet. *)
  QCheck.Test.make ~name:"CBR under CIT: PIAT mean = tau, overhead = 1 - lambda tau"
    ~count:20
    QCheck.(pair (int_range 0 10_000) (float_range 1.0 100.0))
    (fun (seed, rate) ->
      let tau = 0.010 in
      let cfg = { (cbr rate) with seed } in
      let n = 400 in
      let r, fires =
        counter_delta "padding.gateway.fires" (fun () -> System.run cfg ~piats:n)
      in
      let span = r.System.timestamps.(n) -. r.System.timestamps.(0) in
      let mean = span /. float_of_int n in
      let fires = float_of_int fires in
      let dummies = r.System.overhead *. fires in
      Float.abs (mean -. tau) < 1e-3 /. float_of_int n
      && Float.abs (dummies -. ((1.0 -. (rate *. tau)) *. fires)) <= 1.0 +. 1e-6)

let prop_onoff_rate =
  (* An on/off hop offers [rate_pps] on average: Poisson(λ_on) during an
     on phase D_on, silence for the off phase D_off that starts where the
     on phase ends, λ_on = rate_pps·(m_on + m_off)/m_on.  As a
     renewal-reward process over cycles C = D_on + D_off with
     N_c ~ Poisson(λ_on·D_on) packets, its count over T has mean
     rate_pps·T, give or take one cycle's packets for the start in phase,
     and variance ~ T·Var(N_c − rate_pps·C)/E[C].  The count is read off
     the link: enqueued packets (no queue limit, so no drops) minus the
     padded ones (one per fire, give or take the last emission). *)
  QCheck.Test.make ~name:"on/off hop: offered cross rate within 5 sigma" ~count:10
    QCheck.(
      quad (int_range 0 10_000) (float_range 50.0 300.0) (float_range 0.005 0.05)
        (float_range 0.005 0.05))
    (fun (seed, rate_pps, m_on, m_off) ->
      let cfg =
        {
          System.default_config with
          seed;
          hops =
            [|
              hop ~bw:10_000_000.0
                ~cross:
                  {
                    Netsim.Topology.rate_pps;
                    size_bytes = 400;
                    burst = `On_off (m_on, m_off, None);
                  }
                ();
            |];
          tap_position = 1;
        }
      in
      let (r, enqueued), fires =
        counter_delta "padding.gateway.fires" (fun () ->
            counter_delta "netsim.link.enqueued" (fun () ->
                System.run cfg ~piats:20_000))
      in
      let t = r.System.sim_time in
      let rate_on = rate_pps *. (m_on +. m_off) /. m_on in
      let cycle = m_on +. m_off in
      let var_c = (m_on *. m_on) +. (m_off *. m_off) in
      let var_x =
        (rate_on *. m_on)
        +. (rate_on *. rate_on *. m_on *. m_on)
        +. (rate_pps *. rate_pps *. var_c)
        -. (2.0 *. rate_pps *. rate_on *. m_on *. m_on)
      in
      let sigma = sqrt (t *. var_x /. cycle) in
      let cross = float_of_int (enqueued - fires) in
      Float.abs (cross -. (rate_pps *. t))
      <= (5.0 *. sigma) +. (rate_on *. m_on) +. 1.0)

let suite =
  [
    Alcotest.test_case "exponential_fill bit-equality" `Quick
      test_exponential_fill_bit_equality;
    Alcotest.test_case "exponential_fill partial fill" `Quick
      test_exponential_fill_partial;
    Alcotest.test_case "exponential_fill invalid args" `Quick
      test_exponential_fill_invalid;
    Alcotest.test_case "geometric p=1/NaN boundary" `Quick
      test_geometric_boundary;
    Alcotest.test_case "differential: results + metrics" `Quick
      test_differential_results;
    Alcotest.test_case "differential: trace bytes" `Quick
      test_differential_trace;
    Alcotest.test_case "differential: sharded at jobs 1/2/8" `Quick
      test_differential_sharded_jobs;
    Alcotest.test_case "differential: default trace shares keys" `Quick
      test_default_trace_shares_keys;
    Alcotest.test_case "runs counted for CBR, on/off" `Quick
      test_kernel_runs_counted;
    Alcotest.test_case "checkpoint resume across paths" `Quick
      test_checkpoint_resume_mixed_paths;
    Alcotest.test_case "on/off spec rejected by both" `Quick test_onoff_validation;
    QCheck_alcotest.to_alcotest prop_cbr_cit;
    QCheck_alcotest.to_alcotest prop_onoff_rate;
  ]
