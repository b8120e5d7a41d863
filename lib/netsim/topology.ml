type cross_spec = {
  rate_pps : float;
  size_bytes : int;
  burst : [ `Poisson | `On_off of float * float * float option ];
}

type hop_spec = {
  bandwidth_bps : float;
  propagation : float;
  queue_limit : int option;
  cross : cross_spec option;
}

let validate ~hops ~tap_position =
  if tap_position < 0 || tap_position > Array.length hops then
    invalid_arg "Topology.chain: tap_position out of range";
  Array.iter
    (fun h ->
      if h.bandwidth_bps <= 0.0 then invalid_arg "Topology.chain: bandwidth <= 0";
      if h.propagation < 0.0 then invalid_arg "Topology.chain: propagation < 0";
      (match h.queue_limit with
      | Some l when l < 1 -> invalid_arg "Topology.chain: queue_limit < 1"
      | _ -> ());
      match h.cross with
      | Some c when c.rate_pps <= 0.0 ->
          invalid_arg "Topology.chain: cross rate <= 0"
      | Some { burst = `On_off (mean_on, mean_off, shape); _ } ->
          if not (mean_on > 0.0 && mean_off > 0.0) then
            invalid_arg "Topology.chain: on/off period means must be positive";
          if (match shape with Some s -> not (s > 1.0) | None -> false) then
            invalid_arg "Topology.chain: pareto_shape <= 1"
      | _ -> ())
    hops

(* One child per hop with cross traffic, split back to front: the split
   order is part of every seed's stream layout. *)
let cross_streams ~rng hops =
  let n = Array.length hops in
  let streams = Array.make n None in
  for i = n - 1 downto 0 do
    match hops.(i).cross with
    | None -> ()
    | Some _ -> streams.(i) <- Some (Prng.Rng.split rng)
  done;
  streams
