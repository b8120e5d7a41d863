(* Correctness oracles and the operation tally behind [failed].

   Every oracle states a property that any correct simulator must have —
   queueing/padding theory, conservation, the paper's theorems — and
   never compares two engines, so the checks survive engine rewrites and
   changes that are exact only in distribution. *)

exception Violation of string

let require cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Violation msg)) fmt

(* The tap sees exactly one packet per timer fire when nothing is lost,
   so the mean PIAT is E[T] up to the trace-end effect and the timer's
   own spread: tolerance 1% plus five standard errors. *)
let mean_piat ~timer_mean ~timer_sigma piats =
  let n = Array.length piats in
  require (n >= 2) "mean PIAT: only %d PIATs" n;
  let m = Stats.Descriptive.mean piats in
  let tol =
    (0.01 *. timer_mean) +. (5.0 *. timer_sigma /. sqrt (float_of_int n))
  in
  require
    (Float.abs (m -. timer_mean) <= tol)
    "mean PIAT %.6g s outside %.6g +/- %.3g s" m timer_mean tol

(* Gateway dummy fraction = 1 - lambda E[T] on a fault-free channel.
   The payload count over [sim_time] is Poisson, so the tolerance is
   0.01 plus five of its standard deviations expressed as a fraction of
   the [sim_time / E[T]] fires. *)
let overhead ~rate_pps ~timer_mean ~sim_time overhead =
  let expected = 1.0 -. (rate_pps *. timer_mean) in
  let tol = 0.01 +. (5.0 *. timer_mean *. sqrt (rate_pps /. sim_time)) in
  require
    (Float.abs (overhead -. expected) <= tol)
    "overhead %.4f outside 1 - lambda E[T] = %.4f +/- %.4f" overhead expected
    tol

(* Payload conservation: what leaves cannot exceed what entered, plus
   the copies a duplicating wire created. *)
let conservation ?(duplicated = 0) ~offered ~delivered ~dropped () =
  require
    (offered > 0 && delivered >= 0 && dropped >= 0
    && delivered + dropped <= offered + duplicated)
    "payload conservation: delivered %d + dropped %d > offered %d (+%d dup)"
    delivered dropped offered duplicated

(* Every accepted arrival lands in exactly one flow row. *)
let flow_table ~total_packets ~arrivals =
  require
    (arrivals > 0 && total_packets = float_of_int arrivals)
    "flow table holds %.0f packets for %d arrivals" total_packets arrivals

let ratio r_hat =
  require (Float.is_finite r_hat && r_hat >= 1.0) "r_hat %g < 1" r_hat

let detection (r : Adversary.Detection.result) =
  let n_test = Array.fold_left ( + ) 0 r.n_test_per_class in
  let ok = Array.fold_left ( + ) 0 r.n_correct_per_class in
  require
    (n_test > 0 && ok >= 0 && ok <= n_test && r.detection_rate >= 0.0
    && r.detection_rate <= 1.0)
    "%s detection at n=%d: rate %g, %d/%d correct"
    (Adversary.Feature.name r.feature)
    r.sample_size r.detection_rate ok n_test

(* Theorems 2/3: at r ~ 1.77 a variance or entropy adversary with a
   large sample separates the two payload rates almost surely. *)
let leak ~min_rate (r : Adversary.Detection.result) =
  require
    (r.detection_rate >= min_rate)
    "gateway-only CIT %s leak missed at n=%d: rate %.3f < %.2f"
    (Adversary.Feature.name r.feature)
    r.sample_size r.detection_rate min_rate

(* Operations attempted and failed over a run.  An operation is one
   simulation run, mux fleet run or detection estimate; it fails when it
   raises or one of its oracles does. *)
type tally = {
  attempted : int Atomic.t;
  failed : int Atomic.t;
  errors : string list ref;
}

let tally () =
  {
    attempted = Atomic.make 0;
    failed = Atomic.make 0;
    errors = ref [];
  }

let op t f =
  Atomic.incr t.attempted;
  (* Every operation starts with a calibration mark (a no-op unless the
     run is converting its times to reference seconds). *)
  Host.mark ();
  match f () with
  | v -> Some v
  | exception e ->
      Atomic.incr t.failed;
      let msg =
        match e with Violation m -> m | e -> Printexc.to_string e
      in
      if List.length !(t.errors) < 8 then t.errors := msg :: !(t.errors);
      None
