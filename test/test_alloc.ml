(* Runtime allocation budgets for the per-packet hot path.

   talint's A001 pass reads the source: it catches closures, literals and
   partial applications, but not a boxed int64 stored into a mutable
   field or a float returned by a call the compiler does not inline.
   Those cost ~36 minor words per cross packet on the WAN path before the
   generator state moved into an unboxed buffer, with A001 clean.  These
   tests count [Gc.minor_words] in steady state instead.  They hold in a
   build without cross-module inlining (the dev profile compiles with
   -opaque), where any float or int64 crossing a call boundary is boxed. *)

let native f = match Sys.backend_type with Sys.Native -> f () | _ -> ()

(* Steady-state words per call of [f], after a warm-up call. *)
let words_per_call n f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_rng_step () =
  (* [bits53] and [int] return immediates, so they measure the state
     update alone; a non-inlined [bits64] boxes its int64 result (3 words)
     and nothing else. *)
  native (fun () ->
      let r = Prng.Rng.create ~seed:3 in
      let sink = ref 0 in
      let bits53 = words_per_call 100_000 (fun () -> sink := !sink lxor Prng.Rng.bits53 r) in
      let int = words_per_call 100_000 (fun () -> sink := !sink + Prng.Rng.int r ~bound:1000) in
      let bits64 =
        words_per_call 100_000 (fun () ->
            ignore (Sys.opaque_identity (Prng.Rng.bits64 r) : int64))
      in
      ignore (Sys.opaque_identity !sink);
      if bits53 > 0.0 then Alcotest.failf "bits53: %.2f words/call (want 0)" bits53;
      if int > 0.0 then Alcotest.failf "int: %.2f words/call (want 0)" int;
      if bits64 > 3.0 then Alcotest.failf "bits64: %.2f words/call (want <= 3)" bits64)

let test_exponential_fill () =
  native (fun () ->
      let r = Prng.Rng.create ~seed:4 in
      let n = 4096 in
      let buf = Float.Array.create n in
      let per_draw =
        words_per_call 50 (fun () -> Prng.Sampler.exponential_fill r ~rate:2.0 buf ~n)
        /. float_of_int n
      in
      if per_draw > 0.01 then
        Alcotest.failf "exponential_fill: %.3f words/draw (want <= 0.01)" per_draw)

(* The congested 16:00 hop of the fig8b WAN path, driven in 0.5 s chunks
   with a padded send every 10 ms, as the gateway hands them down. *)
let test_linkstage_advance () =
  native (fun () ->
      let h = (Scenarios.Fig8.hops_for Scenarios.Fig8.Wan ~hour:16.0).(2) in
      let c = Option.get h.Netsim.Topology.cross in
      List.iter
        (fun (name, propagation, queue_limit) ->
          let st = Netsim.Linkstage.create () in
          let in_t = Netsim.Fvec.create () and in_tag = Netsim.Fvec.create () in
          Netsim.Linkstage.configure st ~bandwidth_bps:h.bandwidth_bps ~propagation
            ~queue_limit ~packet_size:512
            ~cross:(Some (Prng.Rng.create ~seed:5, c.rate_pps, c.size_bytes))
            ~in_t ~in_tag;
          let words = ref 0.0 in
          let chunk k =
            Netsim.Fvec.clear in_t;
            Netsim.Fvec.clear in_tag;
            for j = 0 to 49 do
              let time = (0.5 *. float_of_int k) +. (0.01 *. float_of_int j) in
              Netsim.Fvec.push in_t time;
              Netsim.Fvec.push in_tag (if j mod 2 = 0 then time else Float.nan)
            done;
            let w0 = Gc.minor_words () in
            Netsim.Linkstage.advance st ~until:(0.5 *. float_of_int (k + 1));
            words := !words +. (Gc.minor_words () -. w0)
          in
          (* warm-up: ring, pad queue and output buffers reach their size *)
          for k = 0 to 3 do
            chunk k
          done;
          words := 0.0;
          let e0 = Netsim.Linkstage.enqueued st in
          for k = 4 to 13 do
            chunk k
          done;
          let per_packet =
            !words /. float_of_int (Netsim.Linkstage.enqueued st - e0)
          in
          if per_packet > 1.0 then
            Alcotest.failf "%s: advance %.3f words/enqueued packet (want <= 1)"
              name per_packet)
        [
          ("propagation 0, unlimited queue", 0.0, None);
          ("propagation 5 ms, queue limit 64", 0.005, Some 64);
        ])

(* A faulty run with every injector active (the known-answer tests' hot
   profile: bursty loss, duplication, reordering, a drifting clock with
   catch-up fires, flapping and crashes), after a warm-up run has grown
   the arena.  The words include the run's result arrays and every float
   this build boxes across a module boundary: each random draw, and each
   input element the two wire stages read.  Measured: 69.1 words/PIAT
   (55.4 with no fault active; [System.run] at the same settings
   47.7). *)
let test_faulty_run () =
  native (fun () ->
      let piats = 20_000 in
      let cfg =
        {
          Scenarios.Degradation.default_config with
          seed = 9;
          profile = Test_known_answers.hot_profile;
        }
      in
      let run () =
        ignore
          (Scenarios.Degradation.run_faulty cfg ~piats
            : Scenarios.Degradation.run_result)
      in
      let per_piat = words_per_call 1 run /. float_of_int piats in
      if per_piat > 140.0 then
        Alcotest.failf "faulty run: %.2f words/PIAT (want <= 140)" per_piat)

let suite =
  [
    Alcotest.test_case "Rng step allocates nothing" `Quick test_rng_step;
    Alcotest.test_case "exponential_fill per draw" `Quick test_exponential_fill;
    Alcotest.test_case "Linkstage.advance per packet" `Quick
      test_linkstage_advance;
    Alcotest.test_case "faulty run per PIAT" `Quick test_faulty_run;
  ]
