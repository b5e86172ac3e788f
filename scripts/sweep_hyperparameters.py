#!/usr/bin/env python3
"""Sweep the L2 penalty coefficient (lambda) or the number of local
zeroth-order iterations (R) and print the debiased classifier's metrics per
value, mirroring the pipeline's `ude sweep` verb but averaged over seeds.

Usage:
    python3 scripts/sweep_hyperparameters.py lambda --values 0.001,0.01,0.1,1.0
    python3 scripts/sweep_hyperparameters.py local_iters --values 2,5,10,20
"""

import argparse

from ude.pipeline import PipelineConfig, run_experiment, sweep_config


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("param", choices=["lambda", "local_iters"])
    ap.add_argument("--values", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    args = ap.parse_args()
    values = [float(v) for v in args.values.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]

    print(f"{args.param:>12} {'|eps|':>7} {'Acc':>7} {'EO_p':>7} {'|1-DI|':>7}"
          f"   (mean over seeds {seeds})")
    for value in values:
        accs, eops, dis, norms = [], [], [], []
        for seed in seeds:
            res = run_experiment(sweep_config(PipelineConfig(), args.param,
                                              value, seed))
            accs.append(res.ude_report.accuracy)
            eops.append(res.ude_report.eo_pos)
            dis.append(res.ude_report.one_minus_di_abs)
            norms.append(res.edit.eps_norm_trace[-1])
        k = len(seeds)
        print(f"{value:>12g} {sum(norms)/k:>7.3f} {sum(accs)/k:>7.3f} "
              f"{sum(eops)/k:>7.3f} {sum(dis)/k:>7.3f}")


if __name__ == "__main__":
    main()
