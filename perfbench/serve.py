#!/usr/bin/env python3
"""Traced launcher for the forward-only embedding server.

Runs `ude serve` in this process with `ude.oracle.encoder_forward` (the
binding the server's request handler calls) wrapped in a timer, and writes
the server-side totals to the stats file when the server stops (SIGTERM or
SIGINT).

Usage (from the repository root, with PYTHONPATH=src):
    python3 perfbench/serve.py --stats <file.json> -- serve --address 127.0.0.1:0 --out <dir>
"""

import argparse
import json
import signal
import sys
import time


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stats", required=True, help="JSON file written on exit")
    ap.add_argument("ude_args", nargs=argparse.REMAINDER,
                    help="arguments of the ude command line, after --")
    args = ap.parse_args()
    ude_args = args.ude_args[1:] if args.ude_args[:1] == ["--"] else args.ude_args

    import ude.cli
    import ude.oracle

    totals = {"calls": 0, "rows": 0, "s": 0.0}
    forward = ude.oracle.encoder_forward

    def timed_forward(enc, batch):
        t0 = time.perf_counter()
        z = forward(enc, batch)
        totals["s"] += time.perf_counter() - t0
        totals["calls"] += 1
        totals["rows"] += z.shape[0]
        return z

    ude.oracle.encoder_forward = timed_forward
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return ude.cli.main(ude_args)
    finally:
        with open(args.stats, "w") as fh:
            json.dump(totals, fh)


if __name__ == "__main__":
    sys.exit(main())
