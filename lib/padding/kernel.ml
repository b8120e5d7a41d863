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

   Gateway faults: a faulty clock is a timer-law variant on its own
   stream; a crash is a silence window, and [advance] splits its chunk
   at crash and restart instants (see kernel.mli).

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

type clock = {
  drift : float;
  miss_prob : float;
  coalesce : bool;
  max_consecutive_misses : int;
}

let catchup_spacing = 1e-6

type faults = {
  clock : clock;
  rng_clock : Prng.Rng.t;
  mtbf : float;
  restart_delay : float;
  rng_failure : Prng.Rng.t;
}

(* How the fire after a fire is timed. *)
type law = Fixed | Drifting of faults | Adaptive of adaptive

type t = {
  regs : floatarray;
      (* 0 next_fire, 1 last_emit, 2 next crash or restart, 3 went down,
         4 the crashed timer's queued fire, 5 downtime *)
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
  mutable law : law;
  mutable faults : faults option;
  mutable down : bool; (* between a crash and its restart *)
  mutable jitter : Jitter.t;
  mutable packet_size : int;
  mutable arrival_last : bool; (* arrivals re-armed after the timer *)
  mutable fires : int;
  mutable payload_sent : int;
  mutable dummy_sent : int;
  mutable generated : int; (* payload arrival events = source emissions *)
  mutable catchup : int; (* masked fires still to replay *)
  mutable missed_fires : int;
  mutable crashes : int;
  mutable payload_lost : int;
  mutable max_pend : int;
  mutable events : int; (* events this chunk *)
}

let create () =
  let dummy_rng = Prng.Rng.create ~seed:0 in
  {
    regs = Float.Array.make 6 0.0;
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
    law = Fixed;
    faults = None;
    down = false;
    jitter = Jitter.none;
    packet_size = 500;
    arrival_last = true;
    fires = 0;
    payload_sent = 0;
    dummy_sent = 0;
    generated = 0;
    catchup = 0;
    missed_fires = 0;
    crashes = 0;
    payload_lost = 0;
    max_pend = 0;
    events = 0;
  }

(* The faulty clock's interval: the drifted timer draw, plus one more for
   each masked fire; the masked fires are replayed afterwards unless
   they coalesce.  Inlined into the fire, so no float is boxed. *)
let[@inline] drifted t f =
  Timer.draw t.timer f.rng_clock *. (1.0 +. f.clock.drift)

let[@inline] drifting t f ~now =
  let c = f.clock in
  if t.catchup > 0 then begin
    t.catchup <- t.catchup - 1;
    if Obs.Trace.enabled () then
      Netsim.Tracebuf.push t.trace ~key:now ~code:Netsim.Tracebuf.timer_catchup
        ~x:0.0 ~y:0.0;
    catchup_spacing
  end
  else begin
    let span = ref (drifted t f) in
    let missed = ref 0 in
    while
      !missed < c.max_consecutive_misses
      && c.miss_prob > 0.0
      && Prng.Rng.float f.rng_clock < c.miss_prob
    do
      (* This fire is masked; the train reaches the wire one (drifted)
         period later. *)
      incr missed;
      if Obs.Trace.enabled () then
        Netsim.Tracebuf.push t.trace ~key:now ~code:Netsim.Tracebuf.timer_miss
          ~x:0.0 ~y:0.0;
      span := !span +. drifted t f
    done;
    t.missed_fires <- t.missed_fires + !missed;
    if (not c.coalesce) && !missed > 0 then t.catchup <- !missed;
    !span
  end

(* A gateway (re)starting at [now] arms its first fire one interval on;
   the adaptive one starts at its longest period and draws nothing. *)
let first_fire t ~now =
  Float.Array.set t.regs 0
    (match t.law with
    | Fixed -> now +. Timer.draw t.timer t.rng_gateway
    | Drifting f -> now +. drifting t f ~now
    | Adaptive a -> now +. a.max_period)

let arm_crash t f ~now =
  Float.Array.set t.regs 2
    (if f.mtbf < infinity then
       now +. (-.f.mtbf *. log (Prng.Rng.float_pos f.rng_failure))
     else infinity)

let setup ~payload ~adaptive ~faults t ~rng_payload ~rng_gateway ~timer ~jitter
    ~packet_size ~payload_rate =
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
  (* An ideal clock is the plain timer on the gateway stream. *)
  t.law <-
    (match (adaptive, faults) with
    | Some a, _ -> Adaptive a
    | None, Some f
      when f.clock
           <> { drift = 0.0; miss_prob = 0.0; coalesce = true;
                max_consecutive_misses = 1 } ->
        Drifting f
    | None, _ -> Fixed);
  t.faults <- faults;
  t.jitter <- jitter;
  t.packet_size <- packet_size;
  t.fires <- 0;
  t.payload_sent <- 0;
  t.dummy_sent <- 0;
  t.generated <- 0;
  t.catchup <- 0;
  t.missed_fires <- 0;
  t.crashes <- 0;
  t.payload_lost <- 0;
  t.max_pend <- 0;
  t.events <- 0;
  t.down <- false;
  Float.Array.fill t.regs 2 4 infinity;
  Float.Array.set t.regs 5 0.0;
  (* The gateway (its first fire, then its first crash) is created at
     simulated 0.0, before the payload source arms its first arrival. *)
  first_fire t ~now:0.0;
  Float.Array.set t.regs 1 0.0 (* last_emit <- Sim.now at create *);
  (match faults with Some f -> arm_crash t f ~now:0.0 | None -> ());
  Netsim.Train.start t.arrivals ~rng:rng_payload ~rate:payload_rate
    (payload : [ `Poisson | `Cbr ] :> Netsim.Train.law);
  t.arrival_last <- true

let configure ?(payload = `Poisson) ?adaptive t =
  setup ~payload ~adaptive ~faults:None t

let configure_faulty t ~faults =
  setup ~payload:`Poisson ~adaptive:None ~faults:(Some faults) t

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
    match t.law with
    | Adaptive _ -> 0
    | Fixed | Drifting _ ->
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
  match t.law with
  | Fixed -> Float.Array.set t.regs 0 (now +. Timer.draw t.timer t.rng_gateway)
  | Drifting f -> Float.Array.set t.regs 0 (now +. drifting t f ~now)
  | Adaptive a -> adapt t a ~now

(* Arrivals, fires and emissions up to [until]; while the gateway is down
   there are no fires and arrivals are counted and lost. *)
let run t ~until =
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
      if t.down then begin
        t.payload_lost <- t.payload_lost + 1;
        if Obs.Trace.enabled () then
          Netsim.Tracebuf.push t.trace ~key:ta
            ~code:Netsim.Tracebuf.drop_gw_down ~x:0.0 ~y:0.0
      end
      else begin
        Netsim.Fring.push t.window ta;
        Netsim.Fring.push t.queue ta
      end;
      Netsim.Train.next t.arrivals;
      t.arrival_last <- true
    end
    else begin
      t.events <- t.events + 1;
      on_fire t ~now:tf;
      t.arrival_last <- false
    end
  done

let crash t f ~now =
  t.events <- t.events + 1;
  t.crashes <- t.crashes + 1;
  let queued = Netsim.Fring.length t.queue in
  t.payload_lost <- t.payload_lost + queued;
  if Obs.Trace.enabled () then
    Netsim.Tracebuf.push t.trace ~key:now ~code:Netsim.Tracebuf.gateway_crash
      ~x:(float_of_int queued) ~y:0.0;
  Netsim.Fring.clear t.queue;
  Netsim.Fring.clear t.window;
  (* The stopped timer's next fire stays queued in an event loop, which
     pops and counts it: [advance] counts it once its time has come (an
     earlier one still queued, only with a restart shorter than a timer
     period, is counted now). *)
  let queued_fire = Float.Array.get t.regs 4 in
  if queued_fire < infinity then t.events <- t.events + 1;
  Float.Array.set t.regs 4 (Float.Array.get t.regs 0);
  Float.Array.set t.regs 0 infinity;
  t.down <- true;
  Float.Array.set t.regs 3 now;
  Float.Array.set t.regs 2 (now +. f.restart_delay)

let restart t f ~now =
  t.events <- t.events + 1;
  t.down <- false;
  Float.Array.set t.regs 5
    (Float.Array.get t.regs 5 +. (now -. Float.Array.get t.regs 3));
  if Obs.Trace.enabled () then
    Netsim.Tracebuf.push t.trace ~key:now ~code:Netsim.Tracebuf.gateway_restart
      ~x:0.0 ~y:0.0;
  Float.Array.set t.regs 1 now;
  (* The new timer is armed after the payload source's pending arrival. *)
  t.arrival_last <- false;
  first_fire t ~now;
  arm_crash t f ~now

(* Chunks split at crash and restart instants; events at such an instant
   go before it. *)
let rec run_faulty t f ~until =
  let next = Float.Array.get t.regs 2 in
  if next <= until then begin
    run t ~until:next;
    if t.down then restart t f ~now:next else crash t f ~now:next;
    run_faulty t f ~until
  end
  else run t ~until

let advance t ~until =
  t.events <- 0;
  Netsim.Fvec.clear t.occ;
  Netsim.Fvec.clear t.out_t;
  Netsim.Fvec.clear t.out_tag;
  match t.faults with
  | None -> run t ~until
  | Some f ->
      run_faulty t f ~until;
      let queued_fire = Float.Array.get t.regs 4 in
      if queued_fire <= until then begin
        t.events <- t.events + 1;
        Float.Array.set t.regs 4 infinity
      end

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
let missed_fires t = t.missed_fires
let crashes t = t.crashes
let payload_lost t = t.payload_lost

let downtime t ~now =
  Float.Array.get t.regs 5
  +. if t.down then now -. Float.Array.get t.regs 3 else 0.0

(* Same expression as [Gateway.overhead]. *)
let overhead t =
  let total = t.payload_sent + t.dummy_sent in
  if total = 0 then 0.0 else float_of_int t.dummy_sent /. float_of_int total
