(** The experiment catalog: every stage the two front ends run, with the
    seed offsets that tie a stage's seed to the run's base seed.

    [ta_lab] builds its per-figure subcommands, [all] and [ablations]
    from this module; [bench] builds its stages and its [--only] ids from
    it.  A stage run with base seed [s] uses seed [s + offset].  A
    per-figure [ta_lab] subcommand run without [--seed] passes no seed,
    so the figure module's own default applies (for fig8b that is 42_006,
    not the 42_007 that [all] uses). *)

type stage = {
  id : string;  (** subcommand name and bench [--only] id *)
  offset : int;  (** seed offset from the base seed under [all] and bench *)
}

type figure = {
  stage : stage;
  run :
    scale:float ->
    seed:int option ->
    csv_dir:string option ->
    half_width:float option ->
    Format.formatter ->
    unit;
      (** Run the figure and print its tables, writing their CSVs into
          [csv_dir] when given.  [seed = None] keeps the module default.
          [half_width] reaches only the windowed figures (fig6, fig8a/b);
          [scale] is ignored by fig5b. *)
}

val default_seed : int
(** 42_000: base seed of [ta_lab all] and bench. *)

val figures : figure list
(** The paper's figures in run order: fig4a, fig4b, fig5a, fig5b, fig6,
    fig8a, fig8b and the multirate extension, at offsets 1 to 8.  A
    [run] raises [Sweep.Sweep_internal_error] if a sweep journal
    misbehaves, [Sys_error] when a CSV cannot be written, and
    [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded] from a
    calibration run or, in strict mode ({!Sweep.set_strict}), from a
    failing point. *)

val faults : stage
(** The fault-intensity sweep ({!Degradation.run}), offset 20 in bench. *)

val fleet : stage
(** The fleet-size sweep ({!Fleet.run}), offset 21 in bench. *)

val ablations : stage
(** The ablation sequence ({!run_ablations}), base seed offset 9 in
    bench. *)

val ablations_seed : int
(** 51_000: the base seed of [ta_lab ablations] without [--seed]. *)

val run_ablations : scale:float -> seed:int -> Format.formatter -> unit
(** Every ablation table in order, each at base [seed] plus its own
    offset: jitter models +0, VIT laws +1, entropy bins +2, tap positions
    +3, oracle vs KDE +4, adaptive vs CIT +5, classifier backends +6, mix
    vs padding +7, size padding +9, ROC +10, the bounds table (no seed),
    QoS +8.  Raises [Sweep.Sweep_internal_error] if a sweep journal
    misbehaves, and in strict mode [Starvation.Tap_starved] /
    [Desim.Sim.Event_budget_exceeded] from a failing point. *)
