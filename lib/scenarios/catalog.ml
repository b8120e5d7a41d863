(* The stage list both front ends read: ta_lab builds its per-figure
   subcommands, [all] and [ablations] from it, and bench its stages and
   --only ids, so the two cannot drift apart on ids, order or seeds. *)

type stage = { id : string; offset : int }

type figure = {
  stage : stage;
  run :
    scale:float ->
    seed:int option ->
    csv_dir:string option ->
    half_width:float option ->
    Format.formatter ->
    unit;
}

let default_seed = 42_000
let figure id offset run = { stage = { id; offset }; run }

let figures =
  [
    figure "fig4a" 1 (fun ~scale ~seed ~csv_dir ~half_width:_ fmt ->
        ignore (Fig4a.run ~scale ?seed ?csv_dir fmt));
    figure "fig4b" 2 (fun ~scale ~seed ~csv_dir ~half_width:_ fmt ->
        ignore (Fig4b.run ~scale ?seed ?csv_dir fmt));
    figure "fig5a" 3 (fun ~scale ~seed ~csv_dir ~half_width:_ fmt ->
        ignore (Fig5a.run ~scale ?seed ?csv_dir fmt));
    (* Fig 5(b) evaluates the theorems: it has no workload to scale. *)
    figure "fig5b" 4 (fun ~scale:_ ~seed ~csv_dir ~half_width:_ fmt ->
        ignore (Fig5b.run ?seed ?csv_dir fmt));
    figure "fig6" 5 (fun ~scale ~seed ~csv_dir ~half_width fmt ->
        ignore (Fig6.run ~scale ?seed ?half_width ?csv_dir fmt));
    figure "fig8a" 6 (fun ~scale ~seed ~csv_dir ~half_width fmt ->
        ignore (Fig8.run ~scale ?seed ?half_width ~kind:Fig8.Campus ?csv_dir fmt));
    figure "fig8b" 7 (fun ~scale ~seed ~csv_dir ~half_width fmt ->
        ignore (Fig8.run ~scale ?seed ?half_width ~kind:Fig8.Wan ?csv_dir fmt));
    figure "multirate" 8 (fun ~scale ~seed ~csv_dir ~half_width:_ fmt ->
        ignore (Multirate.run ~scale ?seed ?csv_dir fmt));
  ]

let faults = { id = "faults"; offset = 20 }
let fleet = { id = "fleet"; offset = 21 }
let ablations = { id = "ablations"; offset = 9 }
let ablations_seed = 51_000

(* Each ablation under its own [ablations.<id>] span, so a profile shows
   what the stage's time went to. *)
let run_ablations ~scale ~seed fmt =
  let ablation id f = Obs.span ("ablations." ^ id) f in
  ablation "jitter_models" (fun () ->
      ignore (Ablations.run_jitter_models ~scale ~seed fmt));
  ablation "vit_laws" (fun () ->
      ignore (Ablations.run_vit_laws ~scale ~seed:(seed + 1) fmt));
  ablation "entropy_bins" (fun () ->
      ignore (Ablations.run_entropy_bins ~scale ~seed:(seed + 2) fmt));
  ablation "tap_positions" (fun () ->
      ignore (Ablations.run_tap_positions ~scale ~seed:(seed + 3) fmt));
  ablation "oracle_vs_kde" (fun () ->
      ignore (Ablations.run_oracle_vs_kde ~scale ~seed:(seed + 4) fmt));
  ablation "adaptive_vs_cit" (fun () ->
      ignore (Ablations.run_adaptive_vs_cit ~scale ~seed:(seed + 5) fmt));
  ablation "classifier_backends" (fun () ->
      ignore (Ablations_ext.run_classifier_backends ~scale ~seed:(seed + 6) fmt));
  ablation "mix_vs_padding" (fun () ->
      ignore (Ablations_ext.run_mix_vs_padding ~scale ~seed:(seed + 7) fmt));
  ablation "size_padding" (fun () ->
      ignore (Ablations_ext.run_size_padding ~seed:(seed + 9) fmt));
  ablation "roc" (fun () -> ignore (Ablations_ext.run_roc ~scale ~seed:(seed + 10) fmt));
  ablation "bounds" (fun () -> Ablations_ext.run_bounds_table fmt);
  ablation "qos" (fun () -> ignore (Ablations_ext.run_qos_table ~seed:(seed + 8) fmt))
