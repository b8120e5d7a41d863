(* Unit and property tests for the PRNG core. *)

let check_float = Alcotest.(check (float 1e-9))

let test_determinism () =
  let a = Prng.Rng.create ~seed:123 and b = Prng.Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Rng.bits64 a) (Prng.Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.Rng.create ~seed:1 and b = Prng.Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Rng.bits64 a = Prng.Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Prng.Rng.create ~seed:7 in
  let b = Prng.Rng.copy a in
  let xa = Prng.Rng.bits64 a in
  let xb = Prng.Rng.bits64 b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  (* advancing a does not affect b *)
  ignore (Prng.Rng.bits64 a);
  let xa2 = Prng.Rng.bits64 a and xb2 = Prng.Rng.bits64 b in
  Alcotest.(check bool) "diverged after extra draw" true (xa2 <> xb2 || xa2 = xb2);
  ignore (xa2, xb2)

let test_split_independence () =
  let parent = Prng.Rng.create ~seed:99 in
  let child = Prng.Rng.split parent in
  (* Child and parent streams should not coincide. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Rng.bits64 parent = Prng.Rng.bits64 child then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_float_range_bounds () =
  let rng = Prng.Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let x = Prng.Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_float_pos_never_zero () =
  let rng = Prng.Rng.create ~seed:6 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "positive" true (Prng.Rng.float_pos rng > 0.0)
  done

let test_float_mean () =
  let rng = Prng.Rng.create ~seed:8 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds_and_coverage () =
  let rng = Prng.Rng.create ~seed:9 in
  let seen = Array.make 10 false in
  for _ = 1 to 10_000 do
    let k = Prng.Rng.int rng ~bound:10 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 10);
    seen.(k) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_int_uniformity () =
  let rng = Prng.Rng.create ~seed:10 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let k = Prng.Rng.int rng ~bound:8 in
    counts.(k) <- counts.(k) + 1
  done;
  let expected = Array.make 8 (float_of_int n /. 8.0) in
  let result = Stats.Hypothesis.chi_square_gof ~observed:counts ~expected in
  Alcotest.(check bool) "uniform (chi2 p > 0.001)" true
    (result.Stats.Hypothesis.p_value > 0.001)

let test_int_invalid () =
  let rng = Prng.Rng.create ~seed:11 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Prng.Rng.int rng ~bound:0))

let test_bool_balance () =
  let rng = Prng.Rng.create ~seed:12 in
  let trues = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Prng.Rng.bool rng then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool) "fair coin" true (Float.abs (frac -. 0.5) < 0.02)

let test_float_range () =
  let rng = Prng.Rng.create ~seed:13 in
  for _ = 1 to 1000 do
    let x = Prng.Rng.float_range rng ~lo:(-3.0) ~hi:5.5 in
    Alcotest.(check bool) "in [lo,hi)" true (x >= -3.0 && x < 5.5)
  done

let test_seed_of_string_stable () =
  let a = Prng.Rng.seed_of_string "fig4a" in
  let b = Prng.Rng.seed_of_string "fig4a" in
  Alcotest.(check int) "stable hash" a b;
  Alcotest.(check bool) "different labels differ" true
    (Prng.Rng.seed_of_string "fig4a" <> Prng.Rng.seed_of_string "fig4b");
  Alcotest.(check bool) "non-negative" true (a >= 0)

let test_bits64_distribution () =
  (* Bit-balance smoke test: each of the 64 bits should be ~50% set. *)
  let rng = Prng.Rng.create ~seed:14 in
  let counts = Array.make 64 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Prng.Rng.bits64 rng in
    for b = 0 to 63 do
      if Int64.logand (Int64.shift_right_logical v b) 1L = 1L then
        counts.(b) <- counts.(b) + 1
    done
  done;
  Array.iteri
    (fun b c ->
      let frac = float_of_int c /. float_of_int n in
      if Float.abs (frac -. 0.5) >= 0.02 then
        Alcotest.failf "bit %d biased: %.3f" b frac)
    counts

(* Known-answer vectors recorded from the xoshiro256++ implementation
   before its state moved into an unboxed buffer: the first 16 [bits64],
   [float] and [int ~bound:1000] outputs of fresh generators, and of the
   child [split] derives from one.  Any change of representation must
   reproduce them bit for bit. *)
type kat = {
  seed : int;
  bits : int64 array;
  floats : float array;
  ints : int array;
  child_bits : int64 array;
  child_floats : float array;
  child_ints : int array;
}

let kats =
  [
    {
      seed = 0;
      bits =
        [|
          0x53175d61490b23dfL; 0x61da6f3dc380d507L; 0x5c0fdf91ec9a7bfcL;
          0x02eebf8c3bbe5e1aL; 0x7eca04ebaf4a5eeaL; 0x0543c37757f08d9aL;
          0xdb7490c75ab5026eL; 0xd87343e6464bc959L; 0x4b7da0a02389f0ffL;
          0x1300fc58c0424c16L; 0x5084843206c19968L; 0x10ea073de9aa4dfcL;
          0x1aae554343960cc1L; 0x1804139f10fae720L; 0x10d790e7b8ac10faL;
          0x667d2bffdd1496f7L;
        |];
      floats =
        [|
          0x1.4c5d7585242c8p-2; 0x1.8769bcf70e034p-2; 0x1.703f7e47b269ep-2;
          0x1.775fc61ddf2cp-7; 0x1.fb2813aebd296p-2; 0x1.50f0ddd5fc22p-6;
          0x1.b6e9218eb56ap-1; 0x1.b0e687cc8c979p-1; 0x1.2df682808e27cp-2;
          0x1.300fc58c04248p-4; 0x1.421210c81b066p-2; 0x1.0ea073de9aa48p-4;
          0x1.aae5543439608p-4; 0x1.804139f10faep-4; 0x1.0d790e7b8ac1p-4;
          0x1.99f4afff74524p-2;
        |];
      ints =
        [|
          751; 627; 590; 165; 437; 429; 903; 276;
          703; 355; 860; 190; 704; 760; 709; 211;
        |];
      child_bits =
        [|
          0xe5489e9f4033f525L; 0xcf57807f5caa4422L; 0x65baa5f372c12edeL;
          0xd98a2b54e4c05814L; 0x260e4d428030b5c0L; 0xad6b15470b324d12L;
          0xac954389cf199197L; 0xa4d2e3625aa627a2L; 0x0097c349c6a982bbL;
          0xc486708650e5e21aL; 0x75a9c439276931fcL; 0xebc68a251a738c80L;
          0x0b4488308d428462L; 0x4f3101bdf5482755L; 0x2c1ee7057fe220dbL;
          0x7698c810be341850L;
        |];
      child_floats =
        [|
          0x1.ca913d3e8067ep-1; 0x1.9eaf00feb9548p-1; 0x1.96ea97cdcb04ap-2;
          0x1.b31456a9c980bp-1; 0x1.30726a1401858p-3; 0x1.5ad62a8e16649p-1;
          0x1.592a87139e332p-1; 0x1.49a5c6c4b54c4p-1; 0x1.2f86938d53p-9;
          0x1.890ce10ca1cbcp-1; 0x1.d6a710e49da4cp-2; 0x1.d78d144a34e71p-1;
          0x1.68910611a85p-5; 0x1.3cc406f7d5208p-2; 0x1.60f7382bff11p-3;
          0x1.da632042f8d06p-2;
        |];
      child_ints =
        [|
          82; 89; 295; 290; 472; 169; 331; 993;
          901; 421; 422; 56; 185; 194; 789; 616;
        |];
    };
    {
      seed = 7;
      bits =
        [|
          0x0e2c1a002aae913dL; 0x2c0fc8ddfa4e9e14L; 0xb7b311b3b0d45872L;
          0x6d5d9f6a6318013cL; 0xf6b263f2f5790376L; 0x77385b627c22c489L;
          0xb951f9b3621ea380L; 0x54705b5adc01e528L; 0xfb797f4d139c03ddL;
          0x12c2b9fdd9c111edL; 0x1d3ee9ebb9571239L; 0x2c061aa41969ae7eL;
          0xbbdbdf062e10c409L; 0x1cf3305d746a1ca7L; 0x7ea068f1c1c8824fL;
          0x18e718927f54e75bL;
        |];
      floats =
        [|
          0x1.c583400555d2p-5; 0x1.607e46efd274cp-3; 0x1.6f66236761a8bp-1;
          0x1.b5767da98c6p-2; 0x1.ed64c7e5eaf2p-1; 0x1.dce16d89f08bp-2;
          0x1.72a3f366c43d4p-1; 0x1.51c16d6b70078p-2; 0x1.f6f2fe9a2738p-1;
          0x1.2c2b9fdd9c11p-4; 0x1.d3ee9ebb9571p-4; 0x1.6030d520cb4d4p-3;
          0x1.77b7be0c5c218p-1; 0x1.cf3305d746a18p-4; 0x1.fa81a3c70722p-2;
          0x1.8e718927f54ep-4;
        |];
      ints =
        [|
          830; 458; 89; 678; 571; 532; 304; 36;
          182; 734; 220; 95; 108; 299; 591; 261;
        |];
      child_bits =
        [|
          0xdf2112aa11904c98L; 0xc9d3c2df3e1e78adL; 0xa3ac1e1fa1dd2e7cL;
          0xdce8b50c835caec5L; 0xb8169517cff3ae54L; 0x0bce926746d8f9c4L;
          0xc8cb0d3bf02c8cbdL; 0x061ae95550856810L; 0x587ffec41904f64cL;
          0x1575ca09e90ae887L; 0x19ae866d82ae395dL; 0xfb24bc77b9e559afL;
          0xcd7850a1d12fd9c1L; 0xd7576582dd81a653L; 0x9b8aa8062365f2beL;
          0x52bd850b92bbc295L;
        |];
      child_floats =
        [|
          0x1.be42255423209p-1; 0x1.93a785be7c3cfp-1; 0x1.47583c3f43ba5p-1;
          0x1.b9d16a1906b95p-1; 0x1.702d2a2f9fe75p-1; 0x1.79d24ce8db1fp-5;
          0x1.91961a77e0591p-1; 0x1.86ba5554215ap-6; 0x1.61fffb106413cp-2;
          0x1.575ca09e90ae8p-4; 0x1.9ae866d82ae38p-4; 0x1.f64978ef73cabp-1;
          0x1.9af0a143a25fbp-1; 0x1.aeaecb05bb034p-1; 0x1.3715500c46cbep-1;
          0x1.4af6142e4aefp-2;
        |];
      child_ints =
        [|
          564; 734; 494; 234; 338; 26; 686; 424;
          198; 19; 910; 663; 208; 313; 295; 890;
        |];
    };
  ]

let draws n f = Array.init n (fun _ -> f ())

let check_floats msg expected actual =
  (* Bit equality: the vectors pin the exact stream, not a tolerance. *)
  Alcotest.(check (array int64)) msg
    (Array.map Int64.bits_of_float expected)
    (Array.map Int64.bits_of_float actual)

let test_known_answers () =
  let module R = Prng.Rng in
  List.iter
    (fun k ->
      let name what = Printf.sprintf "seed %d %s" k.seed what in
      let fresh () = R.create ~seed:k.seed in
      let child () = R.split (fresh ()) in
      let r = fresh () in
      Alcotest.(check (array int64)) (name "bits64") k.bits (draws 16 (fun () -> R.bits64 r));
      let r = fresh () in
      check_floats (name "float") k.floats (draws 16 (fun () -> R.float r));
      let r = fresh () in
      Alcotest.(check (array int)) (name "int") k.ints
        (draws 16 (fun () -> R.int r ~bound:1000));
      let c = child () in
      Alcotest.(check (array int64)) (name "split bits64") k.child_bits
        (draws 16 (fun () -> R.bits64 c));
      let c = child () in
      check_floats (name "split float") k.child_floats (draws 16 (fun () -> R.float c));
      let c = child () in
      Alcotest.(check (array int)) (name "split int") k.child_ints
        (draws 16 (fun () -> R.int c ~bound:1000)))
    kats

let test_copy_known_answers () =
  let module R = Prng.Rng in
  List.iter
    (fun k ->
      let r = R.create ~seed:k.seed in
      let first = draws 8 (fun () -> R.bits64 r) in
      let c = R.copy r in
      (* The copy replays the source's continuation, and drawing from it
         leaves the source where it was. *)
      let from_copy = draws 8 (fun () -> R.bits64 c) in
      let from_source = draws 8 (fun () -> R.bits64 r) in
      let rest = Array.sub k.bits 8 8 in
      Alcotest.(check (array int64)) "source prefix" (Array.sub k.bits 0 8) first;
      Alcotest.(check (array int64)) "copy continues the source" rest from_copy;
      Alcotest.(check (array int64)) "source unaffected by the copy" rest from_source)
    kats

let test_bits53_is_float_scale () =
  let a = Prng.Rng.create ~seed:5 and b = Prng.Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let u = Prng.Rng.float a in
    let m = Prng.Rng.bits53 b in
    if Int64.bits_of_float u <> Int64.bits_of_float (float_of_int m *. 0x1.0p-53)
    then Alcotest.failf "bits53 %d does not scale to float %h" m u
  done

let () = ignore check_float

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy is independent clone" `Quick test_copy_independent;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "float in [0,1)" `Quick test_float_range_bounds;
    Alcotest.test_case "float_pos > 0" `Quick test_float_pos_never_zero;
    Alcotest.test_case "float mean ~ 0.5" `Quick test_float_mean;
    Alcotest.test_case "int bounds and coverage" `Quick test_int_bounds_and_coverage;
    Alcotest.test_case "int uniformity (chi2)" `Quick test_int_uniformity;
    Alcotest.test_case "int rejects bound<=0" `Quick test_int_invalid;
    Alcotest.test_case "bool balance" `Quick test_bool_balance;
    Alcotest.test_case "float_range bounds" `Quick test_float_range;
    Alcotest.test_case "seed_of_string stable" `Quick test_seed_of_string_stable;
    Alcotest.test_case "bit balance" `Quick test_bits64_distribution;
    Alcotest.test_case "known-answer streams" `Quick test_known_answers;
    Alcotest.test_case "copy known answers" `Quick test_copy_known_answers;
    Alcotest.test_case "bits53 scales to float" `Quick test_bits53_is_float_scale;
  ]
