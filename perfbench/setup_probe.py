#!/usr/bin/env python3
"""One set-up of a workload in a fresh interpreter: import the package,
build the encoder and the in-process oracles, or start a `ude serve` child
and connect to it. Prints "ready" once set up; the caller times the span
from spawning this process to that line, then this process cleans up.

Usage (from the repository root, with PYTHONPATH=src):
    python3 perfbench/setup_probe.py --workload gezo-remote --work-dir <dir>
"""

import argparse
import signal
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    # stop the server child on SIGTERM too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    import workloads

    cfg = workloads.PipelineConfig()
    if args.workload != "gezo-remote":
        workloads.build_inprocess(cfg)
        print("ready", flush=True)
        return 0
    proc, address = workloads.start_server(args.work_dir)
    try:
        workloads.connect_check(address, cfg.synth.dim)
        print("ready", flush=True)
    finally:
        workloads.stop_process(proc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
