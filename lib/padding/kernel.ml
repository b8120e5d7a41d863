(* Fused padding-gateway stage: the CIT/VIT gateway of [Gateway]
   executed as a batch loop over three merged trains — the payload
   arrival train ([Netsim.Train]: Poisson or CBR), the timer-fire train,
   and the pending emission train — instead of per-event dispatch.

   Exactness contract: the stage consumes the same RNG draws in the same
   order and evaluates the same float expressions as [Gateway.on_fire]
   driven by [Sim.every], so every emission time, occupancy observation
   and counter is bit-identical to the event-loop path.  Payload
   arrivals come from a dedicated split-off stream, so pre-filling a
   block of inter-arrival draws cannot perturb any other stream; timer
   and jitter draws are data-dependent (queue state decides whether the
   payload-extra normal is drawn) and are therefore made scalar, in fire
   order, exactly as the event loop makes them.

   The adaptive variant replaces the timer law by Timmerman-style rate
   tracking: after each fire the next interval comes from the payload
   arrivals in the last [window] and the backlog, clamped to the period
   band, and the jitter draw sees no IRQ-blocking arrivals.

   Same-instant events: a pending emission goes first (the event loop
   pushed it before the coinciding fire's queue record, and its order
   against an arrival is unobservable: disjoint state, no trace record
   on either side); then a payload arrival and a timer fire go in arming
   order, as the event loop's queue sequence orders them: the one whose
   train re-armed first goes first.  At creation the gateway arms its
   fire before the source arms its arrival. *)

type adaptive = {
  min_period : float;
  max_period : float;
  window : float;
  target_queue : float;
}

type t = {
  regs : floatarray; (* 0 next_fire, 1 last_emit *)
  arrivals : Netsim.Train.t; (* payload arrivals *)
  queue : Netsim.Fring.t; (* queued payload creation times *)
  window : Netsim.Fring.t; (* arrivals in the IRQ blocking (or rate) window *)
  pend_t : Netsim.Fring.t; (* pending emissions awaiting their latency *)
  pend_tag : Netsim.Fring.t;
  occ : Netsim.Fvec.t; (* this chunk's queue-occupancy observations *)
  out_t : Netsim.Fvec.t; (* this chunk's emissions *)
  out_tag : Netsim.Fvec.t;
  trace : Netsim.Tracebuf.t;
  mutable rng_gateway : Prng.Rng.t;
  mutable timer : Timer.law;
  mutable adaptive : adaptive option; (* replaces [timer] when set *)
  mutable jitter : Jitter.t;
  mutable packet_size : int;
  mutable arrival_last : bool; (* arrivals re-armed after the timer *)
  mutable fires : int;
  mutable payload_sent : int;
  mutable dummy_sent : int;
  mutable generated : int; (* payload arrival events = source emissions *)
  mutable max_pend : int;
  mutable events : int; (* events this chunk *)
}

let create () =
  let dummy_rng = Prng.Rng.create ~seed:0 in
  {
    regs = Float.Array.make 2 0.0;
    arrivals = Netsim.Train.create ();
    queue = Netsim.Fring.create ~capacity:64 ();
    window = Netsim.Fring.create ~capacity:64 ();
    pend_t = Netsim.Fring.create ~capacity:64 ();
    pend_tag = Netsim.Fring.create ~capacity:64 ();
    occ = Netsim.Fvec.create ~capacity:1024 ();
    out_t = Netsim.Fvec.create ~capacity:1024 ();
    out_tag = Netsim.Fvec.create ~capacity:1024 ();
    trace = Netsim.Tracebuf.create ();
    rng_gateway = dummy_rng;
    timer = Timer.Constant 0.010;
    adaptive = None;
    jitter = Jitter.none;
    packet_size = 500;
    arrival_last = true;
    fires = 0;
    payload_sent = 0;
    dummy_sent = 0;
    generated = 0;
    max_pend = 0;
    events = 0;
  }

let configure ?(payload = `Poisson) ?adaptive t ~rng_payload ~rng_gateway ~timer
    ~jitter ~packet_size ~payload_rate =
  (match adaptive with
  | Some (a : adaptive) when a.window <= 0.0 ->
      invalid_arg "Kernel.configure: window <= 0"
  | _ -> ());
  Netsim.Fring.clear t.queue;
  Netsim.Fring.clear t.window;
  Netsim.Fring.clear t.pend_t;
  Netsim.Fring.clear t.pend_tag;
  Netsim.Fvec.clear t.occ;
  Netsim.Fvec.clear t.out_t;
  Netsim.Fvec.clear t.out_tag;
  Netsim.Tracebuf.clear t.trace;
  t.rng_gateway <- rng_gateway;
  t.timer <- timer;
  t.adaptive <- adaptive;
  t.jitter <- jitter;
  t.packet_size <- packet_size;
  t.fires <- 0;
  t.payload_sent <- 0;
  t.dummy_sent <- 0;
  t.generated <- 0;
  t.max_pend <- 0;
  t.events <- 0;
  (* First fire and first payload arrival are both scheduled at creation
     time (simulated 0.0) as clock +. first interval, the arrival last.
     The adaptive gateway starts at its longest period and draws nothing. *)
  Float.Array.set t.regs 0
    (match adaptive with
    | None -> 0.0 +. Timer.draw timer rng_gateway
    | Some a -> 0.0 +. a.max_period);
  Float.Array.set t.regs 1 0.0 (* last_emit <- Sim.now at create *);
  Netsim.Train.start t.arrivals ~rng:rng_payload ~rate:payload_rate
    (payload : [ `Poisson | `Cbr ] :> Netsim.Train.law);
  t.arrival_last <- true

let note_pend t =
  let pend = Netsim.Fring.length t.pend_t in
  if pend > t.max_pend then t.max_pend <- pend

(* Forget the arrivals before [start].  Inlined, so [start] is not boxed
   on every fire. *)
let[@inline] prune t ~start =
  while
    (not (Netsim.Fring.is_empty t.window))
    && Netsim.Fring.peek t.window < start
  do
    ignore (Netsim.Fring.pop t.window : float)
  done

(* The adaptive controller after a fire at [now]: aim the send rate
   slightly above the payload rate estimated over the window so the
   backlog stays near [target_queue], clamp the period to the band, and
   arm the next fire one period on. *)
let adapt t (a : adaptive) ~now =
  prune t ~start:(now -. a.window);
  let rate = float_of_int (Netsim.Fring.length t.window) /. a.window in
  let backlog = float_of_int (Netsim.Fring.length t.queue) in
  let pressure = 1.0 +. (0.5 *. (backlog -. a.target_queue)) in
  let desired_rate = Float.max 1.0 (rate *. Float.max pressure 0.1) in
  let p = 1.0 /. desired_rate in
  Float.Array.set t.regs 0
    (now +. Float.min a.max_period (Float.max a.min_period p))

(* Replays [Gateway.on_fire] at fire time [now]. *)
let on_fire t ~now =
  t.fires <- t.fires + 1;
  Netsim.Fvec.push t.occ (float_of_int (Netsim.Fring.length t.queue));
  let arrivals_in_window =
    match t.adaptive with
    | Some _ -> 0
    | None ->
        prune t ~start:(now -. Jitter.irq_window);
        Netsim.Fring.length t.window
  in
  let sends_payload = not (Netsim.Fring.is_empty t.queue) in
  let latency =
    Jitter.latency_at t.jitter t.rng_gateway ~sends_payload ~arrivals_in_window
  in
  let emit_time =
    Float.max (now +. latency) (Float.Array.get t.regs 1 +. 1e-12)
  in
  Float.Array.set t.regs 1 emit_time;
  let tag =
    if sends_payload then begin
      t.payload_sent <- t.payload_sent + 1;
      Netsim.Fring.pop t.queue
    end
    else begin
      t.dummy_sent <- t.dummy_sent + 1;
      Float.nan
    end
  in
  if Obs.Trace.enabled () then begin
    Netsim.Tracebuf.push t.trace ~key:now ~code:Netsim.Tracebuf.timer_fire
      ~x:(float_of_int (Netsim.Fring.length t.queue))
      ~y:0.0;
    Netsim.Tracebuf.push t.trace ~key:now
      ~code:
        (if sends_payload then Netsim.Tracebuf.sent_payload
         else Netsim.Tracebuf.sent_dummy)
      ~x:(float_of_int t.packet_size) ~y:emit_time
  end;
  Netsim.Fring.push t.pend_t emit_time;
  Netsim.Fring.push t.pend_tag tag;
  note_pend t;
  (* Sim.every: the fire body runs before the next interval is drawn. *)
  match t.adaptive with
  | None -> Float.Array.set t.regs 0 (now +. Timer.draw t.timer t.rng_gateway)
  | Some a -> adapt t a ~now

let advance t ~until =
  t.events <- 0;
  Netsim.Fvec.clear t.occ;
  Netsim.Fvec.clear t.out_t;
  Netsim.Fvec.clear t.out_tag;
  let continue = ref true in
  while !continue do
    let ta = Netsim.Train.head t.arrivals in
    let tf = Float.Array.get t.regs 0 in
    let te =
      if Netsim.Fring.is_empty t.pend_t then infinity
      else Netsim.Fring.peek t.pend_t
    in
    let m = Float.min (Float.min ta tf) te in
    if m > until then continue := false
    else if te = m then begin
      (* emission event: the packet leaves for the first hop *)
      ignore (Netsim.Fring.pop t.pend_t : float);
      let tag = Netsim.Fring.pop t.pend_tag in
      t.events <- t.events + 1;
      Netsim.Fvec.push t.out_t te;
      Netsim.Fvec.push t.out_tag tag
    end
    else if ta = m && (tf > m || not t.arrival_last) then begin
      (* payload arrival event: source emit + Gateway.input *)
      t.events <- t.events + 1;
      t.generated <- t.generated + 1;
      Netsim.Fring.push t.window ta;
      Netsim.Fring.push t.queue ta;
      Netsim.Train.next t.arrivals;
      t.arrival_last <- true
    end
    else begin
      t.events <- t.events + 1;
      on_fire t ~now:tf;
      t.arrival_last <- false
    end
  done

let out_times t = t.out_t
let out_tags t = t.out_tag
let trace t = t.trace
let occupancy t = t.occ
let chunk_events t = t.events
let fires t = t.fires
let payload_sent t = t.payload_sent
let dummy_sent t = t.dummy_sent
let generated t = t.generated
let max_pending t = t.max_pend

(* Same expression as [Gateway.overhead]. *)
let overhead t =
  let total = t.payload_sent + t.dummy_sent in
  if total = 0 then 0.0 else float_of_int t.dummy_sent /. float_of_int total
