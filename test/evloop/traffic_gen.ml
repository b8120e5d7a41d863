type t = { mutable generated : int; mutable handle : Desim.Sim.handle option }

let stop t =
  match t.handle with
  | Some h ->
      Desim.Sim.cancel h;
      t.handle <- None
  | None -> ()

let generated t = t.generated

(* A periodic train whose tick emits one packet of [size_of ()] bytes. *)
let start sim ~interval ~size_of ~kind ~dest =
  let t = { generated = 0; handle = None } in
  let gen = Netsim.Packet.Id_gen.create () in
  t.handle <-
    Some
      (Desim.Sim.every sim ~interval (fun () ->
           let size_bytes = size_of () in
           t.generated <- t.generated + 1;
           dest
             (Netsim.Packet.make_gen gen ~kind ~size_bytes
                ~created:(Desim.Sim.now sim))));
  t

let cbr sim ~rate_pps ~size_bytes ~kind ~dest () =
  if rate_pps <= 0.0 then invalid_arg "Traffic_gen.cbr: rate <= 0";
  let period = 1.0 /. rate_pps in
  start sim
    ~interval:(fun () -> period)
    ~size_of:(fun () -> size_bytes)
    ~kind ~dest

let poisson_sized sim ~rng ~rate_pps ~size_of ~kind ~dest () =
  if rate_pps <= 0.0 then invalid_arg "Traffic_gen.poisson_sized: rate <= 0";
  start sim
    ~interval:(fun () -> Prng.Sampler.exponential rng ~rate:rate_pps)
    ~size_of:(fun () -> size_of rng)
    ~kind ~dest

let modulated_poisson sim ~rng ~rate_fn ~rate_max ~size_bytes ~kind ~dest () =
  let gen = Netsim.Packet.Id_gen.create () in
  Netsim.Traffic_gen.modulated_arrivals sim ~rng ~rate_fn ~rate_max
    ~f:(fun now ->
      dest (Netsim.Packet.make_gen gen ~kind ~size_bytes ~created:now))
    ()
