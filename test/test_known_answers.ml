(* Known answers for the System entry points besides [run]:
   [run_adaptive], [run_mix] and [run_unpadded], each with no hops and
   with one loaded Poisson-cross hop and the tap after it, at two seeds.
   The vectors were recorded from the discrete-event implementation of
   these runs, before they moved onto the staged pipeline; the pipeline
   must reproduce them bit for bit.  Floats are compared as their [%h]
   spelling, so a difference in the last bit fails. *)

module System = Scenarios.System

type vector = {
  entry : string;
  layout : string;
  seed : int;
  piats : string list;  (** the first 16 post-warm-up PIATs *)
  overhead : string;
  offered : int;
  delivered : int;
  sim_time : string;
}

let loaded_hop =
  {
    Netsim.Topology.bandwidth_bps = 1_000_000.0;
    propagation = 0.001;
    queue_limit = None;
    cross =
      Some { Netsim.Topology.rate_pps = 150.0; size_bytes = 400; burst = `Poisson };
  }

let layout = function
  | "nohops" -> ([||], 0)
  | "loaded" -> ([| loaded_hop |], 1)
  | l -> invalid_arg ("unknown layout " ^ l)

let run entry cfg =
  match entry with
  | "adaptive" -> System.run_adaptive cfg ~piats:300
  | "mix" -> System.run_mix cfg ~piats:300
  | "unpadded" -> System.run_unpadded cfg ~packets:300
  | e -> invalid_arg ("unknown entry point " ^ e)

let vectors =
  [
    {
      entry = "adaptive";
      layout = "nohops";
      seed = 3;
      piats =
        [
          "0x1.47b9b715571ep-5";
          "0x1.47a370c4c285p-5";
          "0x1.47af6710df45p-5";
          "0x1.47add4621e4p-5";
          "0x1.47ad25a0be16p-5";
          "0x1.47afaba24a94p-5";
          "0x1.47b017a19318p-5";
          "0x1.47b41920365p-5";
          "0x1.47a4e15ecc0ep-5";
          "0x1.47ad195e247p-5";
          "0x1.47b66d80fa4ap-5";
          "0x1.47b4f033cea6p-5";
          "0x1.47abf227e578p-5";
          "0x1.47af4bb11b12p-5";
          "0x1.47ad1fa4545ap-5";
          "0x1.47a063473692p-5";
        ];
      overhead = "0x1.2aee826295774p-1";
      offered = 134;
      delivered = 134;
      sim_time = "0x1.9d3f7ced91689p+3";
    };
    {
      entry = "adaptive";
      layout = "nohops";
      seed = 1009;
      piats =
        [
          "0x1.47ac6064fd0ep-5";
          "0x1.47b5184a5f4bp-5";
          "0x1.47a2eeae1402p-5";
          "0x1.47b3bc8cb962p-5";
          "0x1.47b21c47e1fp-5";
          "0x1.47af1f2887bep-5";
          "0x1.47aa487be4dp-5";
          "0x1.47b84e06136cp-5";
          "0x1.47a57fa0f244p-5";
          "0x1.47aa6919316ap-5";
          "0x1.47abe59b51a8p-5";
          "0x1.47b5811efeb8p-5";
          "0x1.47a6f559b31p-5";
          "0x1.47aa7b4c5a2ap-5";
          "0x1.47b2b9c9d924p-5";
          "0x1.47ac9d89ce96p-5";
        ];
      overhead = "0x1.286bca1af286cp-1";
      offered = 136;
      delivered = 136;
      sim_time = "0x1.9d3f7ced91689p+3";
    };
    {
      entry = "adaptive";
      layout = "loaded";
      seed = 3;
      piats =
        [
          "0x1.48de52e62ab3p-5";
          "0x1.301675218e03p-5";
          "0x1.47af6710df44p-5";
          "0x1.47add4621e4p-5";
          "0x1.47ad25a0be16p-5";
          "0x1.47afaba24a94p-5";
          "0x1.8742093d4926p-5";
          "0x1.5b573eab3684p-5";
          "0x1.09a5e97c47e2p-5";
          "0x1.3f505def8e7p-5";
          "0x1.3add09ab5e34p-5";
          "0x1.47b4f033cea6p-5";
          "0x1.6afecd70e1e2p-5";
          "0x1.2a05b2525e82p-5";
          "0x1.56f40cb2f72p-5";
          "0x1.32b0344e53f2p-5";
        ];
      overhead = "0x1.2c3f35ba78195p-1";
      offered = 134;
      delivered = 134;
      sim_time = "0x1.9ea7ef9db22d3p+3";
    };
    {
      entry = "adaptive";
      layout = "loaded";
      seed = 1009;
      piats =
        [
          "0x1.309c003a37bdp-5";
          "0x1.47b5184a5f4bp-5";
          "0x1.47a2eeae1401p-5";
          "0x1.5ee9c43de87ap-5";
          "0x1.307c1496b2d8p-5";
          "0x1.6e6b45c3a784p-5";
          "0x1.4a719edf0084p-5";
          "0x1.1e34d107d7f2p-5";
          "0x1.47a57fa0f244p-5";
          "0x1.60d724d920eep-5";
          "0x1.3e2a434bc39cp-5";
          "0x1.43949aab2618p-5";
          "0x1.65c34a4bd304p-5";
          "0x1.1e03f35db15ep-5";
          "0x1.47b2b9c9d924p-5";
          "0x1.5384a781527p-5";
        ];
      overhead = "0x1.286bca1af286cp-1";
      offered = 136;
      delivered = 136;
      sim_time = "0x1.9d3f7ced91689p+3";
    };
    {
      entry = "mix";
      layout = "nohops";
      seed = 3;
      piats =
        [
          "0x1.0624dd2f1acp-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.238de999a4f6cp-1";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1bp-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1bp-10";
          "0x1.a40063e694c6p-2";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1bp-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1a8p-10";
        ];
      overhead = "0x1.2895da895da89p-2";
      offered = 233;
      delivered = 233;
      sim_time = "0x1.67b3333333334p+4";
    };
    {
      entry = "mix";
      layout = "nohops";
      seed = 1009;
      piats =
        [
          "0x1.0624dd2f1acp-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0c82be4309574p-1";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1bp-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1bp-10";
          "0x1.09cce5c55c118p-1";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1bp-10";
          "0x1.0624dd2f1a8p-10";
          "0x1.0624dd2f1a8p-10";
        ];
      overhead = "0x1.22576a2576a25p-2";
      offered = 235;
      delivered = 235;
      sim_time = "0x1.82a6666666667p+4";
    };
    {
      entry = "mix";
      layout = "loaded";
      seed = 3;
      piats =
        [
          "0x1.0624dd2f1aap-8";
          "0x1.d7dbf487fccp-8";
          "0x1.149fa04b371dep-1";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.8d0655218b8p-2";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.d7dbf487fccp-8";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
        ];
      overhead = "0x1.2895da895da89p-2";
      offered = 233;
      delivered = 232;
      sim_time = "0x1.67b3333333334p+4";
    };
    {
      entry = "mix";
      layout = "loaded";
      seed = 1009;
      piats =
        [
          "0x1.d7dbf487fccp-8";
          "0x1.0624dd2f1aap-8";
          "0x1.fcf6bda66e6e4p-2";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.d7dbf487fccp-8";
          "0x1.d7dbf487fccp-8";
          "0x1.0624dd2f1aap-8";
          "0x1.d7dbf487fccp-8";
          "0x1.f9c13e580c6dp-2";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
          "0x1.0624dd2f1aap-8";
        ];
      overhead = "0x1.22576a2576a25p-2";
      offered = 235;
      delivered = 235;
      sim_time = "0x1.82a6666666667p+4";
    };
    {
      entry = "unpadded";
      layout = "nohops";
      seed = 3;
      piats =
        [
          "0x1.3d7faaf4588fp-4";
          "0x1.84ae9da7b12fp-3";
          "0x1.20642cc82f2cp-6";
          "0x1.728c3f2e5175p-4";
          "0x1.a99cad8b81e2p-5";
          "0x1.4c2c44a5679p-4";
          "0x1.812bc8c7d9bp-4";
          "0x1.725daa141444p-5";
          "0x1.63bda7ae612p-5";
          "0x1.5e800a18d804p-5";
          "0x1.3610ae4271b7p-3";
          "0x1.12b93a6fc7cp-9";
          "0x1.e800bab95d1p-6";
          "0x1.321db967256ap-3";
          "0x1.27d50ca18352p-3";
          "0x1.ce0d0094ff63p-3";
        ];
      overhead = "0x0p+0";
      offered = 326;
      delivered = 326;
      sim_time = "0x1.f59999999999ap+4";
    };
    {
      entry = "unpadded";
      layout = "nohops";
      seed = 1009;
      piats =
        [
          "0x1.089cc3e28d94cp-2";
          "0x1.2ab5faa72d8p-9";
          "0x1.32e5a84bed6cp-3";
          "0x1.7b4967c7c15ep-4";
          "0x1.bd7eebd85208p-5";
          "0x1.199cabda6acp-5";
          "0x1.fb47bf3a97cp-9";
          "0x1.3c1af1dc32c4p-3";
          "0x1.43a725351156p-4";
          "0x1.eb5d1e011f78p-4";
          "0x1.e73cddcfe2d8p-6";
          "0x1.2b2e76073acp-5";
          "0x1.c0612b51ed0cp-5";
          "0x1.630393307de3p-2";
          "0x1.6c58f67e08ccp-5";
          "0x1.0fb910fb892p-7";
        ];
      overhead = "0x0p+0";
      offered = 323;
      delivered = 323;
      sim_time = "0x1.10ccccccccccdp+5";
    };
    {
      entry = "unpadded";
      layout = "loaded";
      seed = 3;
      piats =
        [
          "0x1.61b6d38571cap-4";
          "0x1.7293095f24918p-3";
          "0x1.26aa44b052bcp-6";
          "0x1.7e8b2c9b3c61p-4";
          "0x1.8e7bc6bd9a42p-5";
          "0x1.4c2c44a5679p-4";
          "0x1.812bc8c7d9bp-4";
          "0x1.725daa141444p-5";
          "0x1.772c3caffb08p-5";
          "0x1.4b1175173e1cp-5";
          "0x1.3610ae4271b7p-3";
          "0x1.d7dbf487fccp-8";
          "0x1.9460e4e556d8p-6";
          "0x1.344c9b4141dbp-3";
          "0x1.25a62ac766e1p-3";
          "0x1.ce0d0094ff63p-3";
        ];
      overhead = "0x0p+0";
      offered = 326;
      delivered = 326;
      sim_time = "0x1.f59999999999ap+4";
    };
    {
      entry = "unpadded";
      layout = "loaded";
      seed = 1009;
      piats =
        [
          "0x1.0cdbdebb4e70cp-2";
          "0x1.0624dd2f1aap-8";
          "0x1.26e1239b8f95p-3";
          "0x1.7b4967c7c15ep-4";
          "0x1.ce49f291ca54p-5";
          "0x1.08d1a520f274p-5";
          "0x1.0624dd2f1aap-8";
          "0x1.46d106045c73p-3";
          "0x1.337cab2d4c16p-4";
          "0x1.eeb8dfc7e632p-4";
          "0x1.e9a0c37cb69p-6";
          "0x1.499a6055daf4p-5";
          "0x1.af1ff1d124b8p-5";
          "0x1.5eee9ec1d93a8p-2";
          "0x1.834bc8ae4c8p-5";
          "0x1.d7dbf487fccp-8";
        ];
      overhead = "0x0p+0";
      offered = 323;
      delivered = 323;
      sim_time = "0x1.10ccccccccccdp+5";
    };
  ]

let hex = Printf.sprintf "%h"

let check v () =
  let hops, tap_position = layout v.layout in
  let cfg =
    { System.default_config with seed = v.seed; hops; tap_position; warmup_piats = 20 }
  in
  let r = run v.entry cfg in
  let first = List.filteri (fun i _ -> i < 16) (Array.to_list r.System.piats) in
  Alcotest.(check (list string)) "first 16 PIATs" v.piats (List.map hex first);
  Alcotest.(check string) "overhead" v.overhead (hex r.System.overhead);
  Alcotest.(check int) "payload offered" v.offered r.System.payload_offered;
  Alcotest.(check int) "payload delivered" v.delivered r.System.payload_delivered;
  Alcotest.(check string) "sim time" v.sim_time (hex r.System.sim_time)


(* Known answers for [Degradation.run_faulty]: the fault-free profile,
   intensities 0.05 and 0.2, and a profile with every injector hot
   (bursty Gilbert-Elliott loss, duplication, reordering, a drifting
   clock that misses fires and catches up, flapping, and a gateway that
   crashes every 5 s on average), each at two seeds.  Recorded from the
   discrete-event fault injectors; [counters] are the run's deltas of
   [fault_counters], in that order. *)

module D = Scenarios.Degradation

type faulty_vector = {
  profile : string;
  seed : int;
  piats : string list;  (** the first 16 post-warm-up PIATs *)
  n_piats : int;
  overhead : string;
  payload_offered : int;
  payload_delivered : int;
  payload_dropped_gw : int;
  lost_wire : int;
  lost_outage : int;
  lost_crash : int;
  crashes : int;
  gw_downtime : string;
  mean_payload_latency : string;
  sim_time : string;
  counters : int list;
}

let hot_profile =
  {
    D.loss =
      Faults.Lossy.Gilbert_elliott
        { p_good_to_bad = 0.05; p_bad_to_good = 0.3; loss_good = 0.01; loss_bad = 0.5 };
    dup_prob = 0.05;
    reorder_prob = 0.05;
    reorder_delay = 0.005;
    clock =
      {
        Faults.Clock.drift = 0.001;
        miss_prob = 0.1;
        coalesce = false;
        max_consecutive_misses = 3;
      };
    flap = Some (2.0, 0.05);
    mtbf = 5.0;
    restart_delay = 0.2;
  }

let profile_named = function
  | "hot" -> hot_profile
  | x -> D.profile_of_intensity (float_of_string x)

let fault_counters =
  [
    "faults.clock.missed_fires";
    "faults.crash.crashes";
    "faults.crash.payload_lost";
    "faults.lossy.lost";
    "faults.lossy.duplicated";
    "faults.lossy.reordered";
    "faults.outage.outages";
    "faults.outage.dropped";
  ]

let faulty_piats = 1500

let faulty_vectors =
  [
    {
      profile = "0";
      seed = 11;
      piats =
        [
          "0x1.47b940039c2p-7";
          "0x1.4795a5bc14ap-7";
          "0x1.47bf48af258p-7";
          "0x1.47b77daa796p-7";
          "0x1.47ad587c9c6p-7";
          "0x1.47a1db4f315p-7";
          "0x1.47e122921bcp-7";
          "0x1.477d01e03f4p-7";
          "0x1.47b1067fbe8p-7";
          "0x1.47a70bc5e8bp-7";
          "0x1.47b82060521p-7";
          "0x1.47a5b053286p-7";
          "0x1.47af390b583p-7";
          "0x1.47aa3d4bc94p-7";
          "0x1.47afb0908d9p-7";
          "0x1.47b6420ee1dp-7";
        ];
      n_piats = 1500;
      overhead = "0x1.c9ce4c0d2c9cep-1";
      payload_offered = 181;
      payload_delivered = 181;
      payload_dropped_gw = 0;
      lost_wire = 0;
      lost_outage = 0;
      lost_crash = 0;
      crashes = 0;
      gw_downtime = "0x0p+0";
      mean_payload_latency = "0x1.6728bb8a472d6p-8";
      sim_time = "0x1.119999999999fp+4";
      counters = [ 0; 0; 0; 0; 0; 0; 0; 0 ];
    };
    {
      profile = "0";
      seed = 2027;
      piats =
        [
          "0x1.479ede2bf94p-7";
          "0x1.47b64be8fbep-7";
          "0x1.47b73e31767p-7";
          "0x1.47ab933b5a2p-7";
          "0x1.47a4aee253dp-7";
          "0x1.47b1a7d5b0bp-7";
          "0x1.47b85cb048bp-7";
          "0x1.47bbbefd26bp-7";
          "0x1.4794659145ep-7";
          "0x1.47af42a5e3dp-7";
          "0x1.47a9a8e2cefp-7";
          "0x1.47a215b22bdp-7";
          "0x1.47b42514106p-7";
          "0x1.47ab91c4734p-7";
          "0x1.47c4dd3af5bp-7";
          "0x1.47a53089123p-7";
        ];
      n_piats = 1500;
      overhead = "0x1.d2308158ed231p-1";
      payload_offered = 153;
      payload_delivered = 153;
      payload_dropped_gw = 0;
      lost_wire = 0;
      lost_outage = 0;
      lost_crash = 0;
      crashes = 0;
      gw_downtime = "0x0p+0";
      mean_payload_latency = "0x1.52eb37daa72acp-8";
      sim_time = "0x1.119999999999fp+4";
      counters = [ 0; 0; 0; 0; 0; 0; 0; 0 ];
    };
    {
      profile = "0.05";
      seed = 11;
      piats =
        [
          "0x1.47b79c87289p-7";
          "0x1.47b2a0c799ap-7";
          "0x1.47b8140c5dfp-7";
          "0x1.47bea58ab23p-7";
          "0x1.47d51cb307p-7";
          "0x1.478981f2f0ap-7";
          "0x1.47bf90c1f12p-7";
          "0x1.47b5359a612p-7";
          "0x1.47b839f2215p-7";
          "0x1.47bc090def1p-7";
          "0x1.47c2fda18cap-7";
          "0x1.479cb7cdcfap-7";
          "0x1.47c9a526184p-7";
          "0x1.47ad2f12d17p-7";
          "0x1.47bf4a1a042p-7";
          "0x1.47c94ecd61dp-7";
        ];
      n_piats = 1500;
      overhead = "0x1.c9d254d034316p-1";
      payload_offered = 191;
      payload_delivered = 178;
      payload_dropped_gw = 0;
      lost_wire = 99;
      lost_outage = 0;
      lost_crash = 0;
      crashes = 0;
      gw_downtime = "0x0p+0";
      mean_payload_latency = "0x1.93c70d9a667ccp-8";
      sim_time = "0x1.2762762762763p+4";
      counters = [ 40; 0; 0; 99; 9; 8; 0; 0 ];
    };
    {
      profile = "0.05";
      seed = 2027;
      piats =
        [
          "0x1.47cd40b6c61p-7";
          "0x1.47ad9404e29p-7";
          "0x1.47b5e950f08p-7";
          "0x1.47e662fb3b9p-7";
          "0x1.478a2a4bc8fp-7";
          "0x1.47b1a16b59dp-7";
          "0x1.47b262123618p-6";
          "0x1.47b9d3d1b31p-7";
          "0x1.47c4a52538ap-7";
          "0x1.47b9b237542p-7";
          "0x1.479a9880593p-7";
          "0x1.47be90e473fp-6";
          "0x1.47c2a624bcb8p-6";
          "0x1.47996930f51p-7";
          "0x1.47cefcfcebdp-7";
          "0x1.47a17022f93p-7";
        ];
      n_piats = 1500;
      overhead = "0x1.d1ec40ae016e5p-1";
      payload_offered = 161;
      payload_delivered = 156;
      payload_dropped_gw = 0;
      lost_wire = 80;
      lost_outage = 0;
      lost_crash = 0;
      crashes = 0;
      gw_downtime = "0x0p+0";
      mean_payload_latency = "0x1.74e2fef305d11p-8";
      sim_time = "0x1.25670598c5567p+4";
      counters = [ 44; 0; 0; 80; 7; 4; 0; 0 ];
    };
    {
      profile = "0.2";
      seed = 11;
      piats =
        [
          "0x1.47f1b235e558p-6";
          "0x1.47944a7b73p-7";
          "0x1.47bd1023f5dp-7";
          "0x1.47dad8653e5p-7";
          "0x1.47cf18aed408p-6";
          "0x1.47d8b25c74bp-6";
          "0x1.47c4fa19b85p-7";
          "0x1.47d3149332p-7";
          "0x1.47c71f8c14fp-7";
          "0x1.47d82316be3p-7";
          "0x1.47cb229f955p-7";
          "0x1.47d34b19852p-6";
          "0x1.47cb3f8f18bp-7";
          "0x1.47ce888ffc1p-7";
          "0x1.47d053c0b2ap-5";
          "0x1.47f83a8750ep-7";
        ];
      n_piats = 1500;
      overhead = "0x1.c7bddf2ec230ap-1";
      payload_offered = 228;
      payload_delivered = 182;
      payload_dropped_gw = 0;
      lost_wire = 409;
      lost_outage = 0;
      lost_crash = 0;
      crashes = 0;
      gw_downtime = "0x0p+0";
      mean_payload_latency = "0x1.9c6e3d7b35ad9p-8";
      sim_time = "0x1.6eaaaaaaaaaaep+4";
      counters = [ 215; 0; 0; 409; 40; 35; 0; 0 ];
    };
    {
      profile = "0.2";
      seed = 2027;
      piats =
        [
          "0x1.47ea58b36edp-7";
          "0x1.47cbc13498dp-7";
          "0x1.47be05bd29bp-7";
          "0x1.ebc8b9d05638p-6";
          "0x1.47b0b6906adp-7";
          "0x1.47d12d8d319p-7";
          "0x1.47d285424f18p-6";
          "0x1.47d9debfb54p-7";
          "0x1.47bddcd9921p-7";
          "0x1.47ed82a6af1p-7";
          "0x1.47c0fdc76f2p-7";
          "0x1.ebb52d65ec18p-6";
          "0x1.47d671eda82p-6";
          "0x1.47a57a22e27p-7";
          "0x1.48057731877p-7";
          "0x1.ebad45d3c4ep-6";
        ];
      n_piats = 1500;
      overhead = "0x1.cc99f29776efep-1";
      payload_offered = 207;
      payload_delivered = 178;
      payload_dropped_gw = 0;
      lost_wire = 391;
      lost_outage = 0;
      lost_crash = 0;
      crashes = 0;
      gw_downtime = "0x0p+0";
      mean_payload_latency = "0x1.ba471a70ab5fbp-8";
      sim_time = "0x1.6eaaaaaaaaaaep+4";
      counters = [ 228; 0; 0; 391; 34; 32; 0; 0 ];
    };
    {
      profile = "hot";
      seed = 11;
      piats =
        [
          "0x1.4803b94c748p-7";
          "0x1.483d4d09a09p-7";
          "0x1.47bef8319f8p-7";
          "0x1.481524806b7p-7";
          "0x1.47f8ae6d24ap-7";
          "0x1.480ac974575p-7";
          "0x1.47ecfc73f6bp-7";
          "0x0p+0";
          "0x1.48125c2216bp-7";
          "0x1.d5e1f0095e5p-7";
          "0x1.364668f87b9ep-4";
          "0x1.2828e3bp-22";
          "0x1.47fec535f73p-7";
          "0x1.47fd8d745dap-7";
          "0x1.47fa4e8f1a1p-7";
          "0x1.48246207fbcp-7";
        ];
      n_piats = 1500;
      overhead = "0x1.cbd766a024169p-1";
      payload_offered = 201;
      payload_delivered = 173;
      payload_dropped_gw = 0;
      lost_wire = 128;
      lost_outage = 49;
      lost_crash = 16;
      crashes = 8;
      gw_downtime = "0x1.9999999999988p+0";
      mean_payload_latency = "0x1.d36ffff7c6de4p-8";
      sim_time = "0x1.3d37a6f4de9c2p+4";
      counters = [ 179; 8; 16; 128; 79; 93; 13; 49 ];
    };
    {
      profile = "hot";
      seed = 2027;
      piats =
        [
          "0x1.0e72a55bp-19";
          "0x1.47f2c1021cdp-7";
          "0x1.480a2ebf1f7p-7";
          "0x1.480b21079ap-7";
          "0x1.47ff76117dbp-7";
          "0x1.47f891b8776p-7";
          "0x1.4803c0fe6c9p-6";
          "0x1.2abb137dp-19";
          "0x1.480fa1d34a4p-7";
          "0x0p+0";
          "0x1.47e84867697p-7";
          "0x1.4803257c076p-7";
          "0x1.47fd8bb8f28p-7";
          "0x1.47f5f8884f6p-7";
          "0x1.4804ff9d9c68p-6";
          "0x1.78315898p-21";
        ];
      n_piats = 1500;
      overhead = "0x1.d2f1138404979p-1";
      payload_offered = 162;
      payload_delivered = 162;
      payload_dropped_gw = 0;
      lost_wire = 126;
      lost_outage = 19;
      lost_crash = 5;
      crashes = 3;
      gw_downtime = "0x1.3333333333328p-1";
      mean_payload_latency = "0x1.994ea3e90b72ap-8";
      sim_time = "0x1.27a6f4de9bd3cp+4";
      counters = [ 187; 3; 5; 126; 88; 79; 6; 19 ];
    };
  ]

let counter_value name =
  Obs.Metrics.Snapshot.counter_value (Obs.Metrics.snapshot ()) name

let check_faulty v () =
  let before = List.map counter_value fault_counters in
  let r =
    D.run_faulty
      { D.default_config with seed = v.seed; profile = profile_named v.profile }
      ~piats:faulty_piats
  in
  let deltas = List.map2 (fun n b -> counter_value n - b) fault_counters before in
  let first = List.filteri (fun i _ -> i < 16) (Array.to_list r.D.piats) in
  Alcotest.(check (list string)) "first 16 PIATs" v.piats (List.map hex first);
  Alcotest.(check int) "PIAT count" v.n_piats (Array.length r.D.piats);
  Alcotest.(check string) "overhead" v.overhead (hex r.D.overhead);
  Alcotest.(check int) "payload offered" v.payload_offered r.D.payload_offered;
  Alcotest.(check int) "payload delivered" v.payload_delivered r.D.payload_delivered;
  Alcotest.(check int) "gateway drops" v.payload_dropped_gw r.D.payload_dropped_gw;
  Alcotest.(check int) "lost on the wire" v.lost_wire r.D.lost_wire;
  Alcotest.(check int) "lost to outages" v.lost_outage r.D.lost_outage;
  Alcotest.(check int) "lost to crashes" v.lost_crash r.D.lost_crash;
  Alcotest.(check int) "crashes" v.crashes r.D.crashes;
  Alcotest.(check string) "gateway downtime" v.gw_downtime (hex r.D.gw_downtime);
  Alcotest.(check string) "mean payload latency" v.mean_payload_latency
    (hex r.D.mean_payload_latency);
  Alcotest.(check string) "sim time" v.sim_time (hex r.D.sim_time);
  Alcotest.(check (list int)) "fault counter deltas" v.counters deltas

let suite =
  List.map
    (fun v ->
      Alcotest.test_case
        (Printf.sprintf "%s %s seed=%d" v.entry v.layout v.seed)
        `Quick (check v))
    vectors
  @ List.map
      (fun v ->
        Alcotest.test_case
          (Printf.sprintf "faulty %s seed=%d" v.profile v.seed)
          `Quick (check_faulty v))
      faulty_vectors
