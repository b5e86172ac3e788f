"""Command-line entry point.

Verbs: generate, train-sa, learn-edit, train-disease, evaluate (each runs
its stage of pipeline.STAGES against --out), run (all five, one oracle),
sweep, serve, noise-map. Common flags: --config <json>, --out and, except on
serve and noise-map, --seed; the stage verbs and run also take --mode and
--oracle, and sweep takes --seeds, the seeds every value runs on. serve
runs until SIGINT or SIGTERM, then shuts down, frees its address (a Unix
socket's file too) and exits 0.
Exit codes: 0 ok, 2 config error (including a non-finite or boolean config
float, a synth amplitude beyond 1e6 or a negative noise_sigma, a
non-integer or boolean seed, count or region index, a count grid object
without "n", a non-string out_dir or oracle, an --out that a stage verb,
run or sweep cannot create, an empty --oracle or serve --address or one
whose port is not an integer in [0, 65535], an address serve cannot listen
on, a noise-map --top-fraction outside (0, 1], a sweep --values or
--seeds item that is empty or not a number, and sweep --seed with
--seeds; the config is checked with --seed, --out, --mode and --oracle set
over the file's fields, each of which must be well-formed on its own), 3
capability error, 4 remote/protocol error (including a server that cannot
be reached or does not answer in time), 5 undefined metric, 6 edit
learning or head training diverged (a non-finite loss, edit or head
parameter at the end of an epoch), 7 a stage input (an artifact an earlier
stage writes, or the noise-map --edit) is missing or corrupt, holds a
non-finite tensor value, or is not of the config's shapes: data whose
images are not [N, side * side] with N >= 1, an edit that is not
[side * side], a head that is not [E, 2] / [2] or whose E is not the
embedding width of the config's encoder, a listed tensor not an array field.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from .editing import write_noise_map_csv
from .fairness import UndefinedMetric
from .numerics import DivergenceError
from .oracle import CapabilityError, ProtocolError
from .pipeline import (
    MODES,
    STAGES,
    ArtifactError,
    ConfigError,
    PipelineConfig,
    RunDirectory,
    cmd_serve,
    cmd_sweep,
    load_input,
    run_stages,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPABILITY = 3
EXIT_REMOTE = 4
EXIT_METRIC = 5
EXIT_DIVERGED = 6
EXIT_ARTIFACT = 7


def _load_config(args) -> PipelineConfig:
    """The --config file's config, or the default, with the given flags set
    over its fields before the result is checked (PipelineConfig.from_dict)."""
    flags = {"seed": getattr(args, "seed", None), "out_dir": args.out,
             "mode": getattr(args, "mode", None), "oracle": getattr(args, "oracle", None)}
    flags = {k: v for k, v in flags.items() if v is not None}
    return (PipelineConfig.from_json_file(args.config, **flags) if args.config
            else PipelineConfig.from_dict({}, **flags))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ude",
        description="Universal debiased editing pipeline (desk scale)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, oracle=False, seed=True):
        """A verb with the common flags; with `oracle`, also --mode and
        --oracle; without `seed`, no --seed."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON pipeline config")
        if seed:
            p.add_argument("--seed", type=int, help="global seed override")
        p.add_argument("--out", help="output directory override")
        if oracle:
            p.add_argument("--mode", choices=MODES)
            p.add_argument("--oracle", help='"inprocess" or a server address host:port')
        return p

    add("generate", "write the synthetic train/test datasets")
    add("train-sa", "train the group-attribute head on clean embeddings", oracle=True)
    add("learn-edit", "learn the universal edit (white- or black-box)", oracle=True)
    add("train-disease", "train the plain and debiased disease heads", oracle=True)
    add("evaluate", "fairness reports for plain vs debiased heads", oracle=True)
    p = add("sweep", "re-run the pipeline over a parameter grid")
    p.add_argument("--param", required=True, choices=["lambda", "local_iters"])
    p.add_argument("--values", required=True,
                   help="comma-separated values, e.g. 0,0.01,0.1,1")
    p.add_argument("--seeds", help="comma-separated seeds every value runs on "
                                   "(default: one seed per value, from --seed)")
    p = add("serve", "run the forward-only embedding server", seed=False)
    p.add_argument("--address", default="127.0.0.1:7447")
    p = add("noise-map", "export the normalized noise map and top mask as CSV",
            seed=False)
    p.add_argument("--edit", help="edit artifact directory (default <out>/edit)")
    p.add_argument("--top-fraction", type=float, default=0.2)
    add("run", "full pipeline: generate, train-sa, learn-edit, train-disease, "
               "evaluate", oracle=True)
    return parser


def _print_sweep(param: str, rows: list, per_value: int) -> None:
    """One line per value: the means over its seeds' rows."""
    print(f"{param:>12} {'|eps|':>7} {'Acc':>7} {'EO_p':>7} {'|1-DI|':>7}"
          f"   (mean over {per_value} seed(s) per value)")
    for i in range(0, len(rows), per_value):
        runs = rows[i:i + per_value]
        means = [sum(r[key] for r in runs) / per_value
                 for key in ("eps_norm", "Acc", "EO_p", "DI")]
        print(f"{runs[0]['value']:>12g} " + " ".join(f"{m:>7.3f}" for m in means))


def _show(stage: str, run: RunDirectory) -> None:
    """What `ude run` and the stage verbs print as a stage finishes."""
    if stage == "train_sa":
        print(f"group head training accuracy: {run['sa_train_accuracy']:.4f}")
    elif stage == "learn_edit":
        edit = run["edit"]
        print(f"edit learned ({edit.mode}); final |eps|_2 = {edit.eps_norm_trace[-1]:.4f}")
    elif stage == "evaluate":
        for name, rep in run["reports"].items():
            print(f"{name}: acc={rep.accuracy:.3f} EO_n={rep.eo_neg:.3f} "
                  f"EO_p={rep.eo_pos:.3f} |1-DI|={rep.one_minus_di_abs:.3f}")


def _dispatch(args) -> int:
    cfg = _load_config(args)
    cmd = args.command
    stage = cmd.replace("-", "_")
    if cmd == "run" or stage in STAGES:
        run_stages(cfg, STAGES if cmd == "run" else [stage], RunDirectory(cfg),
                   after=_show)
    elif cmd == "sweep":
        if args.seed is not None and args.seeds is not None:
            raise ConfigError("--seed and --seeds exclude each other")
        try:
            values = [float(v) for v in args.values.split(",")]
            seeds = None if args.seeds is None else [int(s) for s in args.seeds.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad sweep values or seeds: {exc}") from exc
        rows = cmd_sweep(cfg, args.param, values, seeds)
        _print_sweep(args.param, rows, len(seeds) if seeds else 1)
    elif cmd == "serve":
        server = cmd_serve(cfg, args.address)
        try:
            # SIGTERM stops the server as Ctrl-C does: shut down, free the
            # address; set before the address is printed, which a caller may
            # wait for before it signals
            signal.signal(signal.SIGTERM, signal.default_int_handler)
            print(f"serving embeddings (forward-only) on {server.bound_address}",
                  flush=True)
            server.serve_forever()
        except KeyboardInterrupt:
            server.shutdown()
    elif cmd == "noise-map":
        if not 0 < args.top_fraction <= 1:
            raise ConfigError(f"--top-fraction must be in (0, 1], got {args.top_fraction}")
        eps = load_input(cfg, "edit", args.edit).eps
        out = os.path.join(cfg.out_dir, "noise_map")
        degenerate = write_noise_map_csv(out, eps, cfg.synth.side, args.top_fraction)
        if degenerate:
            print("warning: constant edit; noise map is degenerate", file=sys.stderr)
        print(f"noise map written to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (ProtocolError, ConnectionError) as exc:
        print(f"remote error: {exc}", file=sys.stderr)
        return EXIT_REMOTE
    except UndefinedMetric as exc:
        print(f"undefined metric: {exc}", file=sys.stderr)
        return EXIT_METRIC
    except DivergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT


if __name__ == "__main__":
    sys.exit(main())
