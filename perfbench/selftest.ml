(* Self-test of the benchmark at a tiny size.

   - every workload and metric named in BENCHMARK.json is emitted, with
     its unit, and every operation passes its oracles;
   - another seed changes the inputs (the digest) but not the metric
     names;
   - the top-level layer seconds of each traced batch cover its wall
     time to within a tenth (the remainder is [other.s]);
   - the kernel-path workloads never fall back to the event loop, and
     the WAN path's stage split names netsim as the dominant layer;
   - the oracles reject deliberately corrupted results;
   - perfbench/targets.json names a target for every per-layer metric.

   Exit status 0 when every check passes, 1 otherwise. *)

module W = Workloads

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") msg;
      if not ok then incr failures)
    fmt

let rejects name f =
  match f () with
  | () -> check false "oracle accepts %s" name
  | exception Oracle.Violation msg -> check true "oracle rejects %s (%s)" name msg

type spec = { workloads : string list; e2e : (string * string) list; layer : (string * string) list }

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let json =
    match Obs.Json.of_string text with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let list key =
    match Obs.Json.member key json with
    | Some (Obs.Json.Arr xs) -> xs
    | _ -> failwith (path ^ ": no list " ^ key)
  in
  let field key x =
    match Obs.Json.member key x with
    | Some (Obs.Json.Str s) -> s
    | _ -> failwith (path ^ ": entry without " ^ key)
  in
  let named key = List.map (fun x -> (field "name" x, field "unit" x)) (list key) in
  {
    workloads = List.map (field "name") (list "workloads");
    e2e = named "end_to_end";
    layer = named "per_layer";
  }

(* Names of the per-layer target map kept beside the benchmark. *)
let target_names ~benchmark =
  let path = Filename.concat (Filename.dirname benchmark) "perfbench/targets.json" in
  match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok json -> (
      match Obs.Json.member "per_layer" json with
      | Some (Obs.Json.Obj kvs) -> List.map fst kvs
      | _ -> failwith (path ^ ": no per_layer object"))
  | Error e -> failwith (path ^ ": " ^ e)

let value (r : Runner.run) name =
  (List.find (fun (x : Runner.metric) -> x.name = name) r.metrics).value

let emitted (r : Runner.run) expected =
  List.for_all
    (fun (name, unit) ->
      List.exists (fun (x : Runner.metric) -> x.name = name && x.unit = unit) r.metrics)
    expected
  && List.length r.metrics = List.length expected

let names (r : Runner.run) = List.map (fun (x : Runner.metric) -> x.name) r.metrics

let workload spec kind =
  let name = W.name kind in
  let run ~seed ~trace =
    Runner.run_workload kind ~seed ~seconds:0.0 ~trace ~sizes:W.tiny
  in
  let a = run ~seed:1 ~trace:false and b = run ~seed:2 ~trace:false in
  let t = run ~seed:1 ~trace:true in
  check (List.mem name spec.workloads) "%s is listed in BENCHMARK.json" name;
  List.iter
    (fun (r : Runner.run) ->
      check (Runner.correct r && r.attempted > 0)
        "%s: %d operations, %d failed%s" name r.attempted r.failed
        (String.concat "" (List.map (fun e -> "; " ^ e) r.errors)))
    [ a; b; t ];
  check (emitted a spec.e2e) "%s: end-to-end metrics emitted with their units" name;
  check (emitted t spec.layer) "%s: per-layer metrics emitted with their units" name;
  check (names a = names b) "%s: seed 2 keeps the metric names" name;
  check (a.digest <> b.digest) "%s: seed 2 changes the inputs (digest %s vs %s)" name
    a.digest b.digest;
  let wall = value t "trace.wall_s" and other = value t "other.s" in
  check
    (Float.abs other <= 0.1 *. wall)
    "%s: layers cover the traced wall time (other %.4f s of %.4f s)" name other wall;
  if kind <> W.Irregular then
    check
      (value t "desim.kernel.fallbacks" = 0.0 && value t "desim.kernel.runs" > 0.0)
      "%s: every system run took the kernel path" name;
  if kind = W.Wan_diurnal then
    check
      (value t "netsim.stage_share" > 0.5)
      "%s: netsim dominates the stage split (share %.3f)" name
      (value t "netsim.stage_share")

let corruption () =
  let cfg = W.base_config ~seed:3 ~index:0 in
  let piats = 2_000 in
  let r = Scenarios.System.run cfg ~piats in
  W.check_padded cfg ~piats r;
  check true "oracles accept an honest gateway run";
  rejects "PIATs scaled by 1.05" (fun () ->
      W.check_padded cfg ~piats
        { r with piats = Array.map (fun x -> 1.05 *. x) r.piats });
  rejects "more payload delivered than offered" (fun () ->
      W.check_padded cfg ~piats
        { r with payload_delivered = r.payload_offered + 1 });
  let mux = Mux.run { Mux.default_config with flows = 500; duration = 0.2 } in
  rejects "a payload dropped from the flow table" (fun () ->
      Oracle.flow_table
        ~total_packets:(Flow_table.total_packets mux.table -. 1.0)
        ~arrivals:mux.arrivals);
  rejects "a chance-level CIT leak" (fun () ->
      Oracle.leak ~min_rate:W.tiny.leak_min_rate
        {
          Adversary.Detection.feature = Adversary.Feature.Sample_variance;
          sample_size = 1000;
          detection_rate = 0.5;
          n_train_per_class = [| 10; 10 |];
          n_test_per_class = [| 10; 10 |];
          n_correct_per_class = [| 5; 5 |];
          threshold = None;
        })

let run ~benchmark =
  let spec = load benchmark in
  check
    (List.sort compare spec.workloads = List.sort compare (List.map fst W.names))
    "BENCHMARK.json lists exactly the benchmark's workloads";
  check
    (List.sort compare (target_names ~benchmark)
    = List.sort compare (List.map fst spec.layer))
    "perfbench/targets.json maps every per-layer metric to its target";
  List.iter (fun (_, kind) -> workload spec kind) W.names;
  corruption ();
  Printf.printf "%s: %d failure(s)\n" (if !failures = 0 then "PASS" else "FAIL") !failures;
  if !failures = 0 then 0 else 1
