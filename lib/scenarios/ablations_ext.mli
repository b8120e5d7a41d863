(** Second ablation group: adversary strength and countermeasure baselines
    beyond the paper's core matrix. *)

val run_classifier_backends :
  ?scale:float -> ?seed:int -> Format.formatter -> (string * float) list
(** How much adversary sophistication buys, on identical CIT traces at
    n = 1000: KDE-Bayes per feature, plain-Gaussian per feature, the joint
    (variance, entropy) naive-Bayes, and the two spectral features.
    Returns (adversary label, detection rate).  Raises
    [Sweep.Sweep_internal_error] if the sweep journal layer misbehaves. *)

val run_mix_vs_padding :
  ?scale:float -> ?seed:int -> Format.formatter -> (string * float * float) list
(** Chaum threshold mix vs CIT vs VIT as rate-hiding mechanisms:
    (scheme, worst-feature detection at n = 200, dummy overhead).  The mix
    hides message correspondence but its flush epochs track the rate, so
    detection stays ≈ 1.0 — the motivation for link padding (paper §2).
    Raises [Sweep.Sweep_internal_error] if the sweep journal layer
    misbehaves. *)

val run_bounds_table : Format.formatter -> unit
(** Pure analytics: for a grid of variance ratios and sample sizes, print
    the paper's Theorem-2 value, the exact gamma-law detection rate, and
    the Bhattacharyya bracket — showing where the paper's linear-in-1/n
    approximation sits relative to rigorous bounds. *)

val run_size_padding :
  ?seed:int -> Format.formatter -> (string * string * float) list
(** The size channel (paper §3.2 remark 3 / ref [7]): two application
    classes with different packet-size mixes but identical timing are
    told apart by per-window mean size and size entropy at ≈100% — until
    packets are padded to a constant 1500 B, which drops both to the 0.5
    floor.  Each class is a Poisson arrival sequence at 100 pps with
    per-packet sizes, drawn directly (no simulator runs).  Returns
    (configuration, feature, detection rate). *)

val run_roc :
  ?scale:float -> ?seed:int -> Format.formatter -> (int * string * float * float) list
(** Threshold-free view of the CIT leak: per feature and sample size, the
    ROC AUC and the best achievable (equal-prior) accuracy along the
    curve: (n, feature, AUC, best accuracy).  AUC isolates the feature's
    intrinsic separability from the KDE classifier's threshold choice. *)

val run_qos_table :
  ?seed:int -> Format.formatter -> (float * float * float) list
(** Defender-side costs: for a sweep of timer rates, the analytic M/D/1
    mean payload delay vs the simulated receiver latency, plus overhead:
    (timer_rate_pps, analytic_delay, simulated_delay).  Raises
    [Sweep.Sweep_internal_error] if the sweep journal layer misbehaves. *)
