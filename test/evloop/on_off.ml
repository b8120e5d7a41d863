type t = {
  mutable stopped : bool;
  mutable generated : int;
  gen : Netsim.Packet.Id_gen.gen;
}

let stop t = t.stopped <- true
let generated t = t.generated

let create sim ~rng ~rate_on_pps ~mean_on ~mean_off ?pareto_shape ~size_bytes
    ~kind ~dest () =
  if rate_on_pps <= 0.0 then invalid_arg "Traffic_gen.on_off: rate <= 0";
  if mean_on <= 0.0 || mean_off <= 0.0 then
    invalid_arg "Traffic_gen.on_off: period means must be positive";
  let draw_period mean =
    match pareto_shape with
    | None -> Prng.Sampler.exponential rng ~rate:(1.0 /. mean)
    | Some shape ->
        if shape <= 1.0 then invalid_arg "Traffic_gen.on_off: pareto_shape <= 1";
        (* Pareto scale chosen so the mean equals [mean]. *)
        let scale = mean *. (shape -. 1.0) /. shape in
        Prng.Sampler.pareto rng ~shape ~scale
  in
  let t = { stopped = false; generated = 0; gen = Netsim.Packet.Id_gen.create () } in
  let emit () =
    t.generated <- t.generated + 1;
    dest
      (Netsim.Packet.make_gen t.gen ~kind ~size_bytes
         ~created:(Desim.Sim.now sim))
  in
  (* Alternate phases; within ON, Poisson emission until the next gap
     lands at or past the phase end.  That gap is dropped: the OFF phase
     runs from the phase end, D_off long. *)
  let rec start_on () =
    if not t.stopped then begin
      let phase_end = Desim.Sim.now sim +. draw_period mean_on in
      let rec next_tick () =
        let now = Desim.Sim.now sim in
        let dt = Prng.Sampler.exponential rng ~rate:rate_on_pps in
        if now +. dt < phase_end then
          ignore (Desim.Sim.after sim ~delay:dt burst : Desim.Sim.handle)
        else
          ignore
            (Desim.Sim.after sim
               ~delay:(phase_end +. draw_period mean_off -. now)
               start_on
              : Desim.Sim.handle)
      and burst () =
        if not t.stopped then begin
          emit ();
          next_tick ()
        end
      in
      next_tick ()
    end
  in
  start_on ();
  t
