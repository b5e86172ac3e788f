"""Command-line entry point.

Verbs: generate, train-sa, learn-edit, train-disease, evaluate, sweep,
serve, noise-map, run. Common flags: --config <json>, --seed, --out.
Exit codes: 0 ok, 2 config error, 3 capability error, 4 remote/protocol
error (including a server that does not answer in time), 5 undefined metric,
6 edit learning diverged (a non-finite loss or edit at the end of an epoch).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .editing import DivergenceError, load_edit, write_noise_map_csv
from .fairness import UndefinedMetric
from .oracle import CapabilityError, ProtocolError
from .pipeline import (
    ConfigError,
    PipelineConfig,
    cmd_evaluate,
    cmd_generate,
    cmd_learn_edit,
    cmd_serve,
    cmd_sweep,
    cmd_train_disease,
    cmd_train_sa,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPABILITY = 3
EXIT_REMOTE = 4
EXIT_METRIC = 5
EXIT_DIVERGED = 6


def _load_config(args) -> PipelineConfig:
    if args.config:
        cfg = PipelineConfig.from_json_file(args.config)
    else:
        cfg = PipelineConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if getattr(args, "mode", None):
        cfg = PipelineConfig.from_dict({**cfg.to_dict(), "mode": args.mode})
    if getattr(args, "oracle", None):
        cfg = PipelineConfig.from_dict({**cfg.to_dict(), "oracle": args.oracle})
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ude",
        description="Universal debiased editing pipeline (desk scale)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **kw):
        p = sub.add_parser(name, help=help_text, **kw)
        p.add_argument("--config", help="JSON pipeline config")
        p.add_argument("--seed", type=int, help="global seed override")
        p.add_argument("--out", help="output directory override")
        return p

    add("generate", "write the synthetic train/test datasets")
    add("train-sa", "train the group-attribute head on clean embeddings")
    p = add("learn-edit", "learn the universal edit (white- or black-box)")
    p.add_argument("--mode", choices=["whitebox", "gezo"])
    p.add_argument("--oracle", help='"inprocess" or a server address host:port')
    add("train-disease", "train the plain and debiased disease heads")
    p = add("evaluate", "fairness reports for plain vs debiased heads")
    p.add_argument("--oracle")
    p = add("sweep", "re-run the pipeline over a parameter grid")
    p.add_argument("--param", required=True, choices=["lambda", "local_iters"])
    p.add_argument("--values", required=True,
                   help="comma-separated values, e.g. 0,0.01,0.1,1")
    p = add("serve", "run the forward-only embedding server")
    p.add_argument("--address", default="127.0.0.1:7447")
    p = add("noise-map", "export the normalized noise map and top mask as CSV")
    p.add_argument("--edit", help="edit artifact directory (default <out>/edit)")
    p.add_argument("--top-fraction", type=float, default=0.2)
    p = add("run", "full pipeline: generate, train-sa, learn-edit, "
                   "train-disease, evaluate")
    p.add_argument("--mode", choices=["whitebox", "gezo"])
    p.add_argument("--oracle")
    return parser


def _print_reports(reports) -> None:
    for name, rep in reports.items():
        print(f"{name}: acc={rep.accuracy:.3f} EO_n={rep.eo_neg:.3f} "
              f"EO_p={rep.eo_pos:.3f} |1-DI|={rep.one_minus_di_abs:.3f}")


def _stage_verbs() -> dict:
    """verb -> (stage command, printer of its result), in pipeline order.
    Built per call, so wrappers later installed on this module's names (a
    tracer, a test's monkeypatch) take effect."""
    return {
        "generate": (cmd_generate, lambda _: None),
        "train-sa": (cmd_train_sa, lambda acc: print(
            f"group head training accuracy: {acc:.4f}")),
        "learn-edit": (cmd_learn_edit, lambda artifact: print(
            f"edit learned ({artifact.mode}); final |eps|_2 = "
            f"{artifact.eps_norm_trace[-1]:.4f}")),
        "train-disease": (cmd_train_disease, lambda _: None),
        "evaluate": (cmd_evaluate, _print_reports),
    }


def _dispatch(args) -> int:
    cfg = _load_config(args)
    cmd = args.command
    stages = _stage_verbs()
    if cmd == "run" or cmd in stages:
        for stage, show in stages.values() if cmd == "run" else [stages[cmd]]:
            show(stage(cfg))
    elif cmd == "sweep":
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad sweep values: {exc}") from exc
        rows = cmd_sweep(cfg, args.param, values)
        print(json.dumps(rows, indent=2))
    elif cmd == "serve":
        server = cmd_serve(cfg, args.address)
        print(f"serving embeddings (forward-only) on {server.bound_address}",
              flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            server.shutdown()
    elif cmd == "noise-map":
        edit_dir = args.edit or os.path.join(cfg.out_dir, "edit")
        artifact = load_edit(edit_dir)
        side = cfg.synth.side
        out = os.path.join(cfg.out_dir, "noise_map")
        degenerate = write_noise_map_csv(out, artifact.eps, side, args.top_fraction)
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


if __name__ == "__main__":
    sys.exit(main())
