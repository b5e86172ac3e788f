#!/usr/bin/env python3
"""Run the reference desk-scale experiment over a seed set and print a
side-by-side table: plain (ERM) vs debiased disease classifier, for the
white-box and the zeroth-order (GeZO) edit.

Usage:
    python3 scripts/run_reference_pipeline.py [--seeds 1,2,3,4,5] [--modes whitebox,gezo]

A malformed --seeds or --modes exits 2 with the usage, before the table.
"""

import argparse

from ude.pipeline import MODES, PipelineConfig, run_experiment


def seed_list(text: str) -> list[int]:
    """--seeds: comma-separated integers."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


def mode_list(text: str) -> list[str]:
    """--modes: comma-separated names from MODES."""
    modes = text.split(",")
    for mode in modes:
        if mode not in MODES:
            raise argparse.ArgumentTypeError(
                f"invalid mode {mode!r} (choose from {', '.join(MODES)})")
    return modes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=seed_list, default="1,2,3,4,5")
    ap.add_argument("--modes", type=mode_list, default=",".join(MODES))
    args = ap.parse_args()

    header = (f"{'mode':<9} {'seed':>4} {'sa_clean':>8} {'sa_edit':>8} "
              f"{'|eps|':>6} | {'erm_acc':>7} {'erm_EOp':>7} {'erm_DI':>7} "
              f"| {'ude_acc':>7} {'ude_EOp':>7} {'ude_DI':>7}")
    print(header)
    print("-" * len(header))
    for mode in args.modes:
        for seed in args.seeds:
            res = run_experiment(PipelineConfig(seed=seed, mode=mode))
            erm, ude = res.erm_report, res.ude_report
            print(f"{mode:<9} {seed:>4} {res.sa_acc_clean:>8.3f} "
                  f"{res.sa_acc_edited:>8.3f} {res.edit.eps_norm_trace[-1]:>6.2f} "
                  f"| {erm.accuracy:>7.3f} {erm.eo_pos:>7.3f} "
                  f"{erm.one_minus_di_abs:>7.3f} | {ude.accuracy:>7.3f} "
                  f"{ude.eo_pos:>7.3f} {ude.one_minus_di_abs:>7.3f}")


if __name__ == "__main__":
    main()
