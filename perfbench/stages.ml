(* Stage-by-stage drive of one kernel-path configuration, for the traced
   run: [Padding.Kernel] plays the gateway and one [Netsim.Linkstage]
   per hop plays link, router and cross source, each stage consuming
   the previous stage's chunk output.  Every [advance] is timed on its
   own, which splits gateway time from per-hop time without any
   instrumentation inside the library.  The tap sits after the last
   stage. *)

type split = {
  kernel_s : float;
  fires : int;
  hop_s : float array;
  packets : int;  (** link enqueues over all hops, cross traffic included *)
  rate : float;  (** post-warm-up tap observations per simulated second *)
}

let chunk = 0.5 (* simulated seconds per advance *)

let drive (cfg : Scenarios.System.config) ~piats =
  let hops = cfg.hops in
  let n = Array.length hops in
  if cfg.tap_position <> n then invalid_arg "Stages.drive: tap must follow the last hop";
  (* Same stream layout as a system run: payload, gateway and cross
     streams split off the root, one cross child per loaded hop. *)
  let root = Prng.Rng.create ~seed:cfg.seed in
  let rng_payload = Prng.Rng.split root in
  let rng_gateway = Prng.Rng.split root in
  let rng_cross = Prng.Rng.split root in
  let cross_rng = Array.make n None in
  for i = n - 1 downto 0 do
    if hops.(i).Netsim.Topology.cross <> None then
      cross_rng.(i) <- Some (Prng.Rng.split rng_cross)
  done;
  let gw = Padding.Kernel.create () in
  Padding.Kernel.configure gw ~rng_payload ~rng_gateway ~timer:cfg.timer
    ~jitter:cfg.jitter ~packet_size:cfg.packet_size
    ~payload_rate:cfg.payload_rate_pps;
  let stages = Array.init n (fun _ -> Netsim.Linkstage.create ()) in
  let in_t = ref (Padding.Kernel.out_times gw) in
  let in_tag = ref (Padding.Kernel.out_tags gw) in
  Array.iteri
    (fun i (h : Netsim.Topology.hop_spec) ->
      let cross =
        match (h.cross, cross_rng.(i)) with
        | Some c, Some rng -> Some (rng, c.rate_pps, c.size_bytes)
        | _ -> None
      in
      Netsim.Linkstage.configure stages.(i) ~bandwidth_bps:h.bandwidth_bps
        ~propagation:h.propagation ~queue_limit:h.queue_limit
        ~packet_size:cfg.packet_size ~cross ~in_t:!in_t ~in_tag:!in_tag;
      in_t := Netsim.Linkstage.out_times stages.(i);
      in_tag := Netsim.Linkstage.out_tags stages.(i))
    hops;
  let tap = !in_t in
  let kernel_s = ref 0.0 in
  let hop_s = Array.make n 0.0 in
  let warm = cfg.warmup_piats + 1 in
  let target = warm + piats in
  let seen = ref 0 and first = ref 0.0 and last = ref 0.0 in
  let until = ref 0.0 in
  let deadline = 100.0 *. float_of_int target *. Padding.Timer.mean cfg.timer in
  while !seen < target do
    if !until > deadline then failwith "Stages.drive: tap starved";
    until := !until +. chunk;
    let t0 = Host.now () in
    Padding.Kernel.advance gw ~until:!until;
    kernel_s := !kernel_s +. (Host.now () -. t0);
    for i = 0 to n - 1 do
      let t0 = Host.now () in
      Netsim.Linkstage.advance stages.(i) ~until:!until;
      hop_s.(i) <- hop_s.(i) +. (Host.now () -. t0)
    done;
    for j = 0 to Netsim.Fvec.length tap - 1 do
      incr seen;
      let t = Netsim.Fvec.unsafe_get tap j in
      if !seen = warm then first := t;
      if !seen <= target then last := t
    done
  done;
  {
    kernel_s = !kernel_s;
    fires = Padding.Kernel.fires gw;
    hop_s;
    packets = Array.fold_left (fun acc st -> acc + Netsim.Linkstage.enqueued st) 0 stages;
    rate = float_of_int piats /. (!last -. !first);
  }

(* Tap observation rate of a system run of the same configuration. *)
let system_rate (r : Scenarios.System.result) =
  let ts = r.timestamps in
  let k = Array.length ts in
  float_of_int (k - 1) /. (ts.(k - 1) -. ts.(0))
