(* Extension modules: confidence intervals, Bhattacharyya bounds,
   parametric/joint/spectral adversaries, mix gateway, QoS model,
   trace I/O. *)

let close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Confidence --- *)

let test_wilson_basic () =
  let iv = Stats.Confidence.wilson ~successes:50 ~trials:100 ~confidence:0.95 in
  Alcotest.(check bool) "contains p-hat" true (Stats.Confidence.contains iv 0.5);
  Alcotest.(check bool) "nontrivial" true (Stats.Confidence.width iv > 0.05);
  Alcotest.(check bool) "bounded" true (iv.Stats.Confidence.lo >= 0.0 && iv.Stats.Confidence.hi <= 1.0)

let test_wilson_extremes () =
  let all = Stats.Confidence.wilson ~successes:20 ~trials:20 ~confidence:0.95 in
  Alcotest.(check bool) "hi = 1 at p=1" true (all.Stats.Confidence.hi >= 1.0 -. 1e-9);
  Alcotest.(check bool) "lo < 1 (Wilson shrinks)" true (all.Stats.Confidence.lo < 1.0);
  let none = Stats.Confidence.wilson ~successes:0 ~trials:20 ~confidence:0.95 in
  Alcotest.(check bool) "lo = 0 at p=0" true (none.Stats.Confidence.lo <= 1e-9)

let test_wilson_narrows_with_n () =
  let w n = Stats.Confidence.width (Stats.Confidence.wilson ~successes:(n / 2) ~trials:n ~confidence:0.95) in
  Alcotest.(check bool) "narrower at larger n" true (w 1000 < w 50)

let test_wilson_coverage () =
  (* Monte-Carlo coverage of the 90% interval at p = 0.3, n = 40. *)
  let rng = Prng.Rng.create ~seed:211 in
  let p = 0.3 and n = 40 and trials = 2000 in
  let covered = ref 0 in
  for _ = 1 to trials do
    let successes = ref 0 in
    for _ = 1 to n do
      if Prng.Sampler.bernoulli rng ~p then incr successes
    done;
    let iv = Stats.Confidence.wilson ~successes:!successes ~trials:n ~confidence:0.90 in
    if Stats.Confidence.contains iv p then incr covered
  done;
  let coverage = float_of_int !covered /. float_of_int trials in
  Alcotest.(check bool) "coverage ~ 0.90" true (coverage > 0.85 && coverage < 0.96)

let test_wald_vs_wilson () =
  (* At p-hat = 0 the Wald interval degenerates to a point, Wilson doesn't. *)
  let wald = Stats.Confidence.wald ~successes:0 ~trials:30 ~confidence:0.95 in
  let wilson = Stats.Confidence.wilson ~successes:0 ~trials:30 ~confidence:0.95 in
  close "wald degenerate" 0.0 (Stats.Confidence.width wald);
  Alcotest.(check bool) "wilson proper" true (Stats.Confidence.width wilson > 0.05)

let test_mean_t () =
  let rng = Prng.Rng.create ~seed:212 in
  let xs = Array.init 400 (fun _ -> Prng.Sampler.normal rng ~mu:7.0 ~sigma:2.0) in
  let iv = Stats.Confidence.mean_t xs ~confidence:0.99 in
  Alcotest.(check bool) "contains true mean" true (Stats.Confidence.contains iv 7.0)

let test_confidence_invalid () =
  Alcotest.check_raises "trials" (Invalid_argument "Confidence: trials < 1")
    (fun () -> ignore (Stats.Confidence.wilson ~successes:0 ~trials:0 ~confidence:0.9))

(* --- Bounds --- *)

let test_bhattacharyya_identical () =
  close "rho = 1 identical" 1.0
    (Analytical.Bounds.bhattacharyya_normal ~mu0:1.0 ~s0:2.0 ~mu1:1.0 ~s1:2.0);
  close "gamma rho = 1" 1.0
    (Analytical.Bounds.bhattacharyya_gamma_same_shape ~shape:3.0 ~scale0:2.0 ~scale1:2.0)

let test_bhattacharyya_separation () =
  let rho_near = Analytical.Bounds.bhattacharyya_normal ~mu0:0.0 ~s0:1.0 ~mu1:1.0 ~s1:1.0 in
  let rho_far = Analytical.Bounds.bhattacharyya_normal ~mu0:0.0 ~s0:1.0 ~mu1:5.0 ~s1:1.0 in
  Alcotest.(check bool) "rho decreases with separation" true (rho_far < rho_near);
  (* closed form: exp(-d^2/8) for equal sigmas *)
  close ~tol:1e-9 "equal-sigma closed form" (exp (-1.0 /. 8.0)) rho_near

let test_bracket_sandwiches_exact_mean () =
  List.iter
    (fun r ->
      let exact = Analytical.Theorems.v_mean ~r in
      let b = Analytical.Bounds.sample_mean_bracket ~sigma_l:1.0 ~sigma_h:(sqrt r) in
      if not (exact >= b.Analytical.Bounds.lower -. 1e-9
              && exact <= b.Analytical.Bounds.upper +. 1e-9) then
        Alcotest.failf "r=%.2f: exact %.4f outside [%.4f, %.4f]" r exact
          b.Analytical.Bounds.lower b.Analytical.Bounds.upper)
    [ 1.1; 1.5; 2.0; 5.0; 20.0 ]

let test_bracket_sandwiches_exact_variance () =
  List.iter
    (fun (r, n) ->
      let exact = Analytical.Bayes_numeric.sample_variance_exact ~sigma2_l:1.0 ~sigma2_h:r ~n in
      let b = Analytical.Bounds.sample_variance_bracket ~sigma2_l:1.0 ~sigma2_h:r ~n in
      if not (exact >= b.Analytical.Bounds.lower -. 1e-9
              && exact <= b.Analytical.Bounds.upper +. 1e-9) then
        Alcotest.failf "r=%.2f n=%d: exact %.4f outside [%.4f, %.4f]" r n exact
          b.Analytical.Bounds.lower b.Analytical.Bounds.upper)
    [ (1.2, 50); (1.5, 100); (2.0, 200); (3.0, 1000) ]

let test_kl_normal () =
  close "KL of identical" 0.0 (Analytical.Bounds.kl_normal ~mu0:0.0 ~s0:1.0 ~mu1:0.0 ~s1:1.0);
  (* KL(N(0,1) || N(1,1)) = 1/2 *)
  close "mean shift" 0.5 (Analytical.Bounds.kl_normal ~mu0:0.0 ~s0:1.0 ~mu1:1.0 ~s1:1.0);
  Alcotest.(check bool) "positive" true
    (Analytical.Bounds.kl_normal ~mu0:0.0 ~s0:1.0 ~mu1:0.0 ~s1:2.0 > 0.0)

let test_bracket_of_rho_edges () =
  let b1 = Analytical.Bounds.detection_bracket_of_rho 1.0 in
  close "rho=1 lower" 0.5 b1.Analytical.Bounds.lower;
  close "rho=1 upper" 0.5 b1.Analytical.Bounds.upper;
  let b0 = Analytical.Bounds.detection_bracket_of_rho 0.0 in
  close "rho=0 both 1" 1.0 b0.Analytical.Bounds.lower;
  close "rho=0 both 1b" 1.0 b0.Analytical.Bounds.upper

(* --- Parametric classifier --- *)

let gaussian n mu sigma seed =
  let rng = Prng.Rng.create ~seed in
  Array.init n (fun _ -> Prng.Sampler.normal rng ~mu ~sigma)

let test_parametric_separable () =
  let clf =
    Adversary.Parametric.train
      ~classes:[| ("a", gaussian 200 0.0 1.0 221); ("b", gaussian 200 8.0 1.0 222) |] ()
  in
  Alcotest.(check int) "low" 0 (Adversary.Parametric.classify clf 0.5);
  Alcotest.(check int) "high" 1 (Adversary.Parametric.classify clf 7.0);
  close ~tol:0.1 "fitted mu" 0.0 (Adversary.Parametric.class_mu clf 0);
  close ~tol:0.1 "fitted sigma" 1.0 (Adversary.Parametric.class_sigma clf 0);
  let acc =
    Adversary.Parametric.accuracy clf
      [| (0, gaussian 100 0.0 1.0 223); (1, gaussian 100 8.0 1.0 224) |]
  in
  Alcotest.(check bool) "near perfect" true (acc > 0.98)

let test_parametric_matches_kde_on_gaussian_data () =
  (* On genuinely Gaussian features the two backends should agree. *)
  let tr0 = gaussian 300 0.0 1.0 225 and tr1 = gaussian 300 2.0 1.0 226 in
  let te0 = gaussian 300 0.0 1.0 227 and te1 = gaussian 300 2.0 1.0 228 in
  let kde = Adversary.Classifier.train ~classes:[| ("a", tr0); ("b", tr1) |] () in
  let par = Adversary.Parametric.train ~classes:[| ("a", tr0); ("b", tr1) |] () in
  let cases = [| (0, te0); (1, te1) |] in
  let a_kde = Adversary.Classifier.accuracy kde cases in
  let a_par = Adversary.Parametric.accuracy par cases in
  Alcotest.(check bool) "within 5 points" true (Float.abs (a_kde -. a_par) < 0.05)

let test_parametric_degenerate_training () =
  let clf =
    Adversary.Parametric.train
      ~classes:[| ("a", Array.make 10 1.0); ("b", Array.make 10 2.0) |] ()
  in
  Alcotest.(check int) "still classifies" 0 (Adversary.Parametric.classify clf 1.0);
  Alcotest.(check int) "other side" 1 (Adversary.Parametric.classify clf 2.0)

let test_detection_gaussian_backend () =
  let rng = Prng.Rng.create ~seed:229 in
  let trace sigma = Array.init 3000 (fun _ -> Prng.Sampler.normal rng ~mu:0.01 ~sigma) in
  let res =
    Adversary.Detection.estimate_on_features ~backend:`Gaussian
      ~feature:Adversary.Feature.Sample_variance ~sample_size:100
      ~named_features:
        [|
          ("low",
           Adversary.Dataset.features_of_trace Adversary.Feature.Sample_variance
             ~reference:0.01 ~sample_size:100 (trace 1e-5));
          ("high",
           Adversary.Dataset.features_of_trace Adversary.Feature.Sample_variance
             ~reference:0.01 ~sample_size:100 (trace 4e-5));
        |]
      ()
  in
  Alcotest.(check bool) "gaussian backend detects" true
    (res.Adversary.Detection.detection_rate > 0.9);
  Alcotest.(check bool) "no threshold reported" true
    (res.Adversary.Detection.threshold = None)

(* --- Joint classifier --- *)

let test_joint_better_than_either_weak_feature () =
  (* Two weakly informative, independent features; jointly stronger. *)
  let rng = Prng.Rng.create ~seed:230 in
  let make_class mu n =
    Array.init n (fun _ ->
        [| Prng.Sampler.normal rng ~mu ~sigma:1.0;
           Prng.Sampler.normal rng ~mu ~sigma:1.0 |])
  in
  let tr0 = make_class 0.0 400 and tr1 = make_class 1.2 400 in
  let te0 = make_class 0.0 400 and te1 = make_class 1.2 400 in
  let joint = Adversary.Joint.train ~classes:[| ("a", tr0); ("b", tr1) |] () in
  let acc_joint = Adversary.Joint.accuracy joint [| (0, te0); (1, te1) |] in
  (* Single-feature accuracy on feature 0 alone. *)
  let single =
    Adversary.Classifier.train
      ~classes:
        [| ("a", Array.map (fun v -> v.(0)) tr0); ("b", Array.map (fun v -> v.(0)) tr1) |] ()
  in
  let acc_single =
    Adversary.Classifier.accuracy single
      [| (0, Array.map (fun v -> v.(0)) te0); (1, Array.map (fun v -> v.(0)) te1) |]
  in
  Alcotest.(check bool)
    (Printf.sprintf "joint (%.3f) > single (%.3f)" acc_joint acc_single)
    true
    (acc_joint > acc_single +. 0.02)

let test_joint_validation () =
  Alcotest.check_raises "ragged" (Invalid_argument "Joint.train: ragged vectors")
    (fun () ->
      ignore
        (Adversary.Joint.train
           ~classes:[| ("a", [| [| 1.0 |]; [| 1.0; 2.0 |] |]); ("b", [| [| 1.0 |] |]) |]
           ()));
  let clf =
    Adversary.Joint.train
      ~classes:[| ("a", [| [| 0.0; 0.0 |] |]); ("b", [| [| 5.0; 5.0 |] |]) |] ()
  in
  Alcotest.(check int) "features" 2 (Adversary.Joint.num_features clf);
  Alcotest.check_raises "width" (Invalid_argument "Joint.classify: wrong vector width")
    (fun () -> ignore (Adversary.Joint.classify clf [| 1.0 |]))

let test_joint_feature_vectors () =
  let vs =
    Adversary.Joint.feature_vectors
      ~features:[ Adversary.Feature.Sample_mean; Adversary.Feature.Sample_variance ]
      ~reference:0.0 ~sample_size:3
      [| 1.0; 2.0; 3.0; 10.0; 10.0; 10.0 |]
  in
  Alcotest.(check int) "two windows" 2 (Array.length vs);
  close "window 0 mean" 2.0 vs.(0).(0);
  close "window 0 var" 1.0 vs.(0).(1);
  close "window 1 var" 0.0 vs.(1).(1)

(* --- Spectral --- *)

let test_spectral_features_distinguish_variance () =
  let rng = Prng.Rng.create ~seed:231 in
  let trace sigma = Array.init 6400 (fun _ -> Prng.Sampler.normal rng ~mu:0.01 ~sigma) in
  let res =
    Adversary.Spectral.estimate ~kind:Adversary.Spectral.Spectral_power
      ~sample_size:128
      ~classes:[| ("low", trace 1e-5); ("high", trace 2e-5) |]
      ()
  in
  (* Spectral power is the variance in disguise: should detect well. *)
  Alcotest.(check bool) "spectral power detects" true
    (res.Adversary.Detection.detection_rate > 0.9)

let test_spectral_extract_bounds () =
  let rng = Prng.Rng.create ~seed:232 in
  let w = Array.init 64 (fun _ -> Prng.Sampler.normal rng ~mu:0.0 ~sigma:1.0) in
  Alcotest.(check bool) "entropy >= 0" true
    (Adversary.Spectral.extract Adversary.Spectral.Spectral_entropy w >= 0.0);
  Alcotest.(check bool) "power > 0" true
    (Adversary.Spectral.extract Adversary.Spectral.Spectral_power w > 0.0);
  Alcotest.check_raises "short window"
    (Invalid_argument "Spectral.extract: need n >= 4") (fun () ->
      ignore (Adversary.Spectral.extract Adversary.Spectral.Spectral_entropy [| 1.0 |]))

(* --- Mix (the Padding.Batch stage) --- *)

(* A batch stage fed the payload arrivals [times] (tags = arrival times)
   and run to [until]; returns the stage and its output tags. *)
let batch_run ~seed ~threshold ~timeout times ~until =
  let in_t = Netsim.Fvec.create () and in_tag = Netsim.Fvec.create () in
  List.iter
    (fun t ->
      Netsim.Fvec.push in_t t;
      Netsim.Fvec.push in_tag t)
    times;
  let b = Padding.Batch.create () in
  Padding.Batch.configure b ~rng:(Prng.Rng.create ~seed) ~threshold ~timeout
    ~spacing:1e-3 ~in_t ~in_tag;
  Padding.Batch.advance b ~until;
  (b, Netsim.Fvec.to_array (Padding.Batch.out_tags b))

let test_mix_threshold_flush () =
  let mix, out = batch_run ~seed:233 ~threshold:4 ~timeout:10.0 [ 0.0; 0.0; 0.0; 0.0 ] ~until:1.0 in
  Alcotest.(check int) "one flush" 1 (Padding.Batch.flushes mix);
  Alcotest.(check int) "exactly K out" 4 (Array.length out);
  Alcotest.(check int) "all payload" 4 (Padding.Batch.payload_sent mix);
  Alcotest.(check int) "no dummies" 0 (Padding.Batch.dummy_sent mix)

let test_mix_timeout_flush_pads_with_dummies () =
  let mix, out = batch_run ~seed:234 ~threshold:5 ~timeout:0.2 [ 0.0 ] ~until:1.0 in
  Alcotest.(check int) "flushed by timeout" 1 (Padding.Batch.flushes mix);
  Alcotest.(check int) "threshold-sized batch" 5 (Array.length out);
  Alcotest.(check int) "4 dummies" 4
    (Array.length (Array.of_list (List.filter Float.is_nan (Array.to_list out))));
  Alcotest.(check int) "4 dummies counted" 4 (Padding.Batch.dummy_sent mix);
  close "overhead 0.8" 0.8 (Padding.Batch.overhead mix)

let test_mix_flush_epochs_leak_rate () =
  (* The point of the baseline: inter-flush time scales with 1/rate. *)
  let run rate seed =
    let res =
      Scenarios.System.run_mix
        { Scenarios.System.default_config with Scenarios.System.seed;
          payload_rate_pps = rate }
        ~piats:2000
    in
    Stats.Descriptive.mean res.Scenarios.System.piats
  in
  let slow = run 10.0 235 and fast = run 40.0 236 in
  Alcotest.(check bool) "mean PIAT tracks the rate" true (slow > fast *. 1.5)

let test_mix_invalid () =
  let run ~threshold ~timeout () =
    ignore
      (Scenarios.System.run_mix ~threshold ~timeout
         Scenarios.System.default_config ~piats:10
        : Scenarios.System.result)
  in
  Alcotest.check_raises "threshold"
    (Invalid_argument "System.run_mix: threshold < 1")
    (run ~threshold:0 ~timeout:0.5);
  Alcotest.check_raises "timeout" (Invalid_argument "System.run_mix: timeout <= 0")
    (run ~threshold:8 ~timeout:0.0)

(* --- QoS --- *)

let test_qos_utilization_and_stability () =
  close "rho" 0.4 (Padding.Qos.utilization ~payload_rate_pps:40.0 ~timer_mean:0.01);
  Alcotest.(check bool) "stable" true
    (Padding.Qos.is_stable ~payload_rate_pps:40.0 ~timer_mean:0.01);
  Alcotest.(check bool) "unstable" false
    (Padding.Qos.is_stable ~payload_rate_pps:200.0 ~timer_mean:0.01)

let test_qos_mean_delay_formula () =
  (* rho = 0.4: D = tau/2 + tau*0.4/(2*0.6) *)
  close "closed form"
    (0.005 +. (0.01 *. 0.4 /. 1.2))
    (Padding.Qos.mean_delay ~payload_rate_pps:40.0 ~timer_mean:0.01);
  Alcotest.check_raises "unstable"
    (Invalid_argument "Qos.mean_delay: unstable (payload faster than the timer)")
    (fun () -> ignore (Padding.Qos.mean_delay ~payload_rate_pps:200.0 ~timer_mean:0.01))

let test_qos_matches_simulation () =
  (* The simulated receiver latency should be near the analytic M/D/1
     value (within ~15%: the simulator adds link transmission ~ 10 us). *)
  let res =
    Scenarios.System.run
      { Scenarios.System.default_config with Scenarios.System.seed = 238;
        payload_rate_pps = 40.0 }
      ~piats:20_000
  in
  let analytic = Padding.Qos.mean_delay ~payload_rate_pps:40.0 ~timer_mean:0.01 in
  let ratio = res.Scenarios.System.mean_payload_latency /. analytic in
  Alcotest.(check bool)
    (Printf.sprintf "simulated/analytic = %.3f in [0.85, 1.15]" ratio)
    true (ratio > 0.85 && ratio < 1.15)

let test_qos_quantile_monotone () =
  let q p = Padding.Qos.delay_quantile ~payload_rate_pps:40.0 ~timer_mean:0.01 ~p in
  Alcotest.(check bool) "monotone in p" true (q 0.99 > q 0.5);
  Alcotest.(check bool) "above mean at high p" true
    (q 0.99 > Padding.Qos.mean_delay ~payload_rate_pps:40.0 ~timer_mean:0.01)

let test_qos_min_timer_rate () =
  let rate = Padding.Qos.min_timer_rate ~payload_rate_pps:40.0 ~max_mean_delay:0.008 in
  Alcotest.(check bool) "above payload rate" true (rate > 40.0);
  let d = Padding.Qos.mean_delay ~payload_rate_pps:40.0 ~timer_mean:(1.0 /. rate) in
  Alcotest.(check bool) "meets the bound" true (d <= 0.008 +. 1e-9);
  (* and is tight: 10% slower timer violates it *)
  let d_slow = Padding.Qos.mean_delay ~payload_rate_pps:40.0 ~timer_mean:(1.1 /. rate) in
  Alcotest.(check bool) "tight" true (d_slow > 0.008)

(* --- Trace I/O --- *)

let test_trace_roundtrip () =
  let path = Filename.temp_file "linkpad_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let ts = [| 0.1; 0.2; 0.30000000001; 12345.6789 |] in
      Netsim.Trace.save ~path
        ~meta:{ Netsim.Trace.label = "40pps lab"; created_unix = 1_700_000_000.0 }
        ts;
      let meta, loaded = Netsim.Trace.load ~path in
      Alcotest.(check string) "label" "40pps lab" meta.Netsim.Trace.label;
      close "created" 1_700_000_000.0 meta.Netsim.Trace.created_unix;
      Alcotest.(check int) "count" 4 (Array.length loaded);
      Array.iteri (fun i x -> close ~tol:1e-15 "value" ts.(i) x) loaded)

let test_trace_piats () =
  Alcotest.(check (array (float 1e-12))) "diffs" [| 0.1; 0.2 |]
    (Netsim.Trace.piats [| 1.0; 1.1; 1.3 |]);
  Alcotest.(check (array (float 0.0))) "short" [||] (Netsim.Trace.piats [| 1.0 |])

let test_trace_malformed () =
  let path = Filename.temp_file "linkpad_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "0.5\nnot-a-number\n";
      close_out oc;
      match Netsim.Trace.load ~path with
      | exception Netsim.Trace.Parse_error { line; msg; _ } ->
          Alcotest.(check int) "line number reported" 2 line;
          Alcotest.(check bool) "message present" true (String.length msg > 0)
      | _ -> Alcotest.fail "expected Parse_error")

let suite =
  [
    Alcotest.test_case "wilson basic" `Quick test_wilson_basic;
    Alcotest.test_case "wilson extremes" `Quick test_wilson_extremes;
    Alcotest.test_case "wilson narrows with n" `Quick test_wilson_narrows_with_n;
    Alcotest.test_case "wilson coverage" `Quick test_wilson_coverage;
    Alcotest.test_case "wald vs wilson at 0" `Quick test_wald_vs_wilson;
    Alcotest.test_case "mean interval" `Quick test_mean_t;
    Alcotest.test_case "confidence invalid" `Quick test_confidence_invalid;
    Alcotest.test_case "bhattacharyya identical" `Quick test_bhattacharyya_identical;
    Alcotest.test_case "bhattacharyya separation" `Quick test_bhattacharyya_separation;
    Alcotest.test_case "bracket sandwiches mean" `Quick test_bracket_sandwiches_exact_mean;
    Alcotest.test_case "bracket sandwiches variance" `Quick test_bracket_sandwiches_exact_variance;
    Alcotest.test_case "KL normal" `Quick test_kl_normal;
    Alcotest.test_case "bracket edge cases" `Quick test_bracket_of_rho_edges;
    Alcotest.test_case "parametric separable" `Quick test_parametric_separable;
    Alcotest.test_case "parametric = kde on gaussian" `Quick test_parametric_matches_kde_on_gaussian_data;
    Alcotest.test_case "parametric degenerate" `Quick test_parametric_degenerate_training;
    Alcotest.test_case "gaussian detection backend" `Quick test_detection_gaussian_backend;
    Alcotest.test_case "joint beats single" `Quick test_joint_better_than_either_weak_feature;
    Alcotest.test_case "joint validation" `Quick test_joint_validation;
    Alcotest.test_case "joint feature vectors" `Quick test_joint_feature_vectors;
    Alcotest.test_case "spectral power detects" `Quick test_spectral_features_distinguish_variance;
    Alcotest.test_case "spectral extract bounds" `Quick test_spectral_extract_bounds;
    Alcotest.test_case "mix threshold flush" `Quick test_mix_threshold_flush;
    Alcotest.test_case "mix timeout + dummies" `Quick test_mix_timeout_flush_pads_with_dummies;
    Alcotest.test_case "mix leaks rate" `Quick test_mix_flush_epochs_leak_rate;
    Alcotest.test_case "mix invalid parameters" `Quick test_mix_invalid;
    Alcotest.test_case "qos utilization" `Quick test_qos_utilization_and_stability;
    Alcotest.test_case "qos mean delay" `Quick test_qos_mean_delay_formula;
    Alcotest.test_case "qos matches simulation" `Quick test_qos_matches_simulation;
    Alcotest.test_case "qos quantile" `Quick test_qos_quantile_monotone;
    Alcotest.test_case "qos min timer rate" `Quick test_qos_min_timer_rate;
    Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace piats" `Quick test_trace_piats;
    Alcotest.test_case "trace malformed" `Quick test_trace_malformed;
  ]
