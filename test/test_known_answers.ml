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

let suite =
  List.map
    (fun v ->
      Alcotest.test_case
        (Printf.sprintf "%s %s seed=%d" v.entry v.layout v.seed)
        `Quick (check v))
    vectors
