type t = {
  mutable stopped : bool;
  mutable generated : int;
  mutable handle : Desim.Sim.handle option;
  gen : Packet.Id_gen.gen;
}

let stop t =
  t.stopped <- true;
  match t.handle with
  | Some h ->
      Desim.Sim.cancel h;
      t.handle <- None
  | None -> ()

let generated t = t.generated

let emit sim t ~size_bytes ~kind ~dest =
  t.generated <- t.generated + 1;
  dest (Packet.make_gen t.gen ~kind ~size_bytes ~created:(Desim.Sim.now sim))

let source () =
  { stopped = false; generated = 0; handle = None; gen = Packet.Id_gen.create () }

let cbr sim ~rate_pps ~size_bytes ~kind ~dest () =
  if rate_pps <= 0.0 then invalid_arg "Traffic_gen.cbr: rate <= 0";
  let t = source () in
  let period = 1.0 /. rate_pps in
  t.handle <-
    Some
      (Desim.Sim.every sim
         ~interval:(fun () -> period)
         (fun () -> emit sim t ~size_bytes ~kind ~dest));
  t

let poisson sim ~rng ~rate_pps ~size_bytes ~kind ~dest () =
  if rate_pps <= 0.0 then invalid_arg "Traffic_gen.poisson: rate <= 0";
  let t = source () in
  t.handle <-
    Some
      (Desim.Sim.every sim
         ~interval:(fun () -> Prng.Sampler.exponential rng ~rate:rate_pps)
         (fun () -> emit sim t ~size_bytes ~kind ~dest));
  t

let poisson_sized sim ~rng ~rate_pps ~size_of ~kind ~dest () =
  if rate_pps <= 0.0 then invalid_arg "Traffic_gen.poisson_sized: rate <= 0";
  let t = source () in
  t.handle <-
    Some
      (Desim.Sim.every sim
         ~interval:(fun () -> Prng.Sampler.exponential rng ~rate:rate_pps)
         (fun () -> emit sim t ~size_bytes:(size_of rng) ~kind ~dest));
  t

(* Lewis–Shedler thinning: candidate events at rate_max, accepted with
   probability rate_fn(now)/rate_max.  One reusable event record drives
   the candidate train; acceptance happens in the body.  The draw order
   (interval, then acceptance, from one rng) is part of the reproducible
   stream and shared by both modulated sources below. *)
let thinned sim ~rng ~rate_fn ~rate_max ~name ~accept =
  Desim.Sim.every sim
    ~interval:(fun () -> Prng.Sampler.exponential rng ~rate:rate_max)
    (fun () ->
      let now = Desim.Sim.now sim in
      let rate = rate_fn now in
      if rate < 0.0 || rate > rate_max then
        invalid_arg (name ^ ": rate_fn out of [0, rate_max]");
      if Prng.Rng.float rng < rate /. rate_max then accept now)

let modulated_poisson sim ~rng ~rate_fn ~rate_max ~size_bytes ~kind ~dest () =
  if rate_max <= 0.0 then invalid_arg "Traffic_gen.modulated_poisson: rate_max <= 0";
  let t = source () in
  t.handle <-
    Some
      (thinned sim ~rng ~rate_fn ~rate_max
         ~name:"Traffic_gen.modulated_poisson"
         ~accept:(fun _now -> emit sim t ~size_bytes ~kind ~dest));
  t

let modulated_arrivals sim ~rng ~rate_fn ~rate_max ~f () =
  if rate_max <= 0.0 then
    invalid_arg "Traffic_gen.modulated_arrivals: rate_max <= 0";
  let t = source () in
  t.handle <-
    Some
      (thinned sim ~rng ~rate_fn ~rate_max
         ~name:"Traffic_gen.modulated_arrivals"
         ~accept:(fun now ->
           t.generated <- t.generated + 1;
           f now));
  t
