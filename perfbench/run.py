#!/usr/bin/env python3
"""End-to-end benchmark of the ude debiasing pipeline.

Runs one workload (whitebox, gezo or gezo-remote; see workloads.py) as a
closed loop of full pipelines, one seed after another, from a single
process with a single oracle connection, for the given number of seconds.
Every pipeline is checked; a pipeline that raises or fails its check counts
as failed. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

With --trace 1 the loop alternates untraced and traced pipelines. Traced
pipelines run with every public function of the `ude` modules wrapped in a
span (spans.py); the spans are written to .perfbench/<workload>/spans.* at
the end, and the difference between the two medians is the tracing
overhead.

Every process of a run (the benchmark, its set-up probes and the embedding
server) is pinned to one CPU, with one BLAS thread each, so the client and
the server together use no more than nproc threads. The protocol is strictly
request/response, so the two never compute at the same time, and pinning
rules out the placement where every round trip needs a cross-CPU wakeup.

Usage, from the repository root:
    python3 perfbench/run.py --workload gezo --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("whitebox", "gezo", "gezo-remote")
SETUP_TRIALS = 5
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "oracle_queries": "count",
    "oracle_samples": "rows",
    "disease_acc": "fraction",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, field) summed over one pipeline; `s` is
# inclusive time, `self_s` excludes the time of traced callees, `work1` and
# `work2` are the work counters spans.WORK computes from array shapes
SPAN_METRICS = {
    "models.train_head.calls": ("models.train_head", "calls"),
    "models.train_head.s": ("models.train_head", "s"),
    "models.train_head.self_s": ("models.train_head", "self_s"),
    "models.head_forward.calls": ("models.head_forward", "calls"),
    "models.head_forward.s": ("models.head_forward", "s"),
    "numerics.optimizer_step.calls": ("numerics.optimizer_step", "calls"),
    "numerics.optimizer_step.s": ("numerics.optimizer_step", "s"),
    "numerics.cross_entropy_batch.calls": ("numerics.cross_entropy_batch", "calls"),
    "numerics.cross_entropy_batch.s": ("numerics.cross_entropy_batch", "s"),
    "numerics.cross_entropy_grad.calls": ("numerics.cross_entropy_grad", "calls"),
    "numerics.cross_entropy_grad.s": ("numerics.cross_entropy_grad", "s"),
    "models.encoder_forward.calls": ("models.encoder_forward", "calls"),
    "models.encoder_forward.rows": ("models.encoder_forward", "work1"),
    "models.encoder_forward.s": ("models.encoder_forward", "s"),
    "models.encoder_forward.flops": ("models.encoder_forward", "work2"),
    "models.encoder_input_grad.calls": ("models.encoder_input_grad", "calls"),
    "models.encoder_input_grad.s": ("models.encoder_input_grad", "s"),
    "oracle.embed.calls": ("oracle.embed", "calls"),
    "oracle.embed.samples": ("oracle.embed", "work1"),
    "oracle.embed.s": ("oracle.embed", "s"),
    "oracle.embed.self_s": ("oracle.embed", "self_s"),
    "oracle.remote.bytes": ("oracle.embed", "work2"),
    "editing.learn_ude_whitebox.s": ("editing.learn_ude_whitebox", "s"),
    "editing.learn_ude_whitebox.self_s": ("editing.learn_ude_whitebox", "self_s"),
    "editing.edit_objective_grad.calls": ("editing.edit_objective_grad", "calls"),
    "editing.edit_objective_grad.s": ("editing.edit_objective_grad", "s"),
    "editing.edit_objective_grad.self_s": ("editing.edit_objective_grad", "self_s"),
    "editing.edit_objective_batch.calls": ("editing.edit_objective_batch", "calls"),
    "editing.edit_objective_batch.s": ("editing.edit_objective_batch", "s"),
    "editing.edit_objective_batch.self_s": ("editing.edit_objective_batch", "self_s"),
    "editing.train_fair_disease.s": ("editing.train_fair_disease", "s"),
    "gezo.learn_ude_gezo.s": ("gezo.learn_ude_gezo", "s"),
    "gezo.learn_ude_gezo.self_s": ("gezo.learn_ude_gezo", "self_s"),
    "gezo.greedy_gradient.calls": ("gezo.greedy_gradient", "calls"),
    "gezo.greedy_gradient.s": ("gezo.greedy_gradient", "s"),
    "gezo.greedy_gradient.self_s": ("gezo.greedy_gradient", "self_s"),
    "pipeline.self_s": ("pipeline", "self_s"),
    "tensor_io.save_tensor.calls": ("tensor_io.save_tensor", "calls"),
    "tensor_io.save_tensor.bytes": ("tensor_io.save_tensor", "work1"),
    "tensor_io.save_tensor.s": ("tensor_io.save_tensor", "s"),
    "tensor_io.load_tensor.calls": ("tensor_io.load_tensor", "calls"),
    "tensor_io.load_tensor.bytes": ("tensor_io.load_tensor", "work1"),
    "tensor_io.load_tensor.s": ("tensor_io.load_tensor", "s"),
    "datagen.generate.calls": ("datagen.generate", "calls"),
    "datagen.generate.s": ("datagen.generate", "s"),
    "fairness.evaluate.s": ("fairness.evaluate", "s"),
}
STAGE_METRICS = {f"pipeline.stage.{s}.s": s for s in
                 ("generate", "train_sa", "learn_edit", "train_disease", "evaluate")}
OTHER_METRICS = ["oracle.remote.rtt_s", "oracle.server.forward_s",
                 "gezo.improve_frac", "gezo.iterations", "trace.pipeline_s",
                 "trace.untraced_pipeline_s", "trace.overhead_s", "trace.spans"]
# unit by the last part of a per-layer metric's name; "-computed" marks
# values derived from array shapes rather than measured
UNIT_OF = {"flops": "flop-computed", "bytes": "B-computed", "rows": "rows",
           "samples": "rows", "improve_frac": "fraction"}


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last == "s" or last.endswith("_s"):
        return "s"
    return UNIT_OF.get(last, "count")


ALL_PER_LAYER = list(SPAN_METRICS) + list(STAGE_METRICS) + OTHER_METRICS
# Times of layers that only some workloads exercise, so they read a constant
# 0 on the others: printed and kept in the result file, but left out of the
# final JSON line, where every time must be a measurement on every workload.
# Their calls and work counts, and the stage times, stay in it.
ONE_WORKLOAD_TIMES = {
    "models.encoder_forward.s", "models.encoder_input_grad.s",
    "editing.learn_ude_whitebox.s", "editing.learn_ude_whitebox.self_s",
    "editing.edit_objective_grad.s", "editing.edit_objective_grad.self_s",
    "editing.edit_objective_batch.s", "editing.edit_objective_batch.self_s",
    "gezo.learn_ude_gezo.s", "gezo.learn_ude_gezo.self_s",
    "gezo.greedy_gradient.s", "gezo.greedy_gradient.self_s",
    "tensor_io.save_tensor.s", "tensor_io.load_tensor.s",
    "oracle.remote.rtt_s", "oracle.server.forward_s",
}
PER_LAYER = [m for m in ALL_PER_LAYER if m not in ONE_WORKLOAD_TIMES]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="workload seed")
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the closed loop starts new pipelines")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def environment(nproc: int, cpu: int, workload: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "pinned_cpu": cpu, "blas_threads_per_process": 1,
            "processes": 2 if workload == "gezo-remote" else 1,
            "machine": platform.machine()}


def time_setup(workload: str, work_dir: str) -> float:
    """Seconds from spawning a fresh set-up process to its "ready" line."""
    from workloads import stop_process

    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
           "--workload", workload, "--work-dir", work_dir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} did not get ready")
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        stop_process(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return elapsed


def end_to_end(ok, setup_samples, peak_rss_mb) -> dict:
    return {
        "pipeline_s": _median(p.seconds for p in ok),
        "setup_s": _median(setup_samples),
        "oracle_queries": _median(p.queries for p in ok),
        "oracle_samples": _median(p.samples for p in ok),
        "disease_acc": _median(p.ude["accuracy"] for p in ok),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, pipelines, server_stats) -> dict:
    traced = [p for p in pipelines if p.traced and not p.error]
    untraced = [p for p in pipelines if not p.traced and not p.error]
    stats = tracer.per_pipeline()
    rows = []
    for p in traced:
        st = stats.get(p.index, {"spans": {}, "stages": {}, "span_count": 0})
        row = {m: st["spans"].get(span, {}).get(f, 0)
               for m, (span, f) in SPAN_METRICS.items()}
        row.update({m: st["stages"].get(s, 0.0) for m, s in STAGE_METRICS.items()})
        embed = st["spans"].get("oracle.embed")
        remote = embed["durations"][embed["work2_each"] > 0] if embed else []
        row["oracle.remote.rtt_s"] = float(_median(remote))
        row["gezo.improve_frac"] = p.improved / p.iterations if p.iterations else 0.0
        row["gezo.iterations"] = p.iterations
        row["trace.spans"] = st["span_count"]
        rows.append(row)
    metrics = {m: _median(r[m] for r in rows) for m in rows[0]} if rows else {}
    # the traced launcher serves every pipeline of the run, traced or not
    served = len(pipelines)
    metrics["oracle.server.forward_s"] = server_stats.get("s", 0.0) / served if served else 0.0
    metrics["trace.pipeline_s"] = _median(p.seconds for p in traced)
    metrics["trace.untraced_pipeline_s"] = _median(p.seconds for p in untraced)
    metrics["trace.overhead_s"] = (metrics["trace.pipeline_s"]
                                   - metrics["trace.untraced_pipeline_s"])
    return {m: metrics.get(m, 0) for m in ALL_PER_LAYER}


def print_summary(workload, env, pipelines, ok, timed, e2e, setup_samples, layer,
                  in_band_min):
    """Every end-to-end metric by name and unit; quality over all passing
    pipelines, times over the untraced ones."""
    failed = len(pipelines) - len(ok)
    print(f"workload {workload}: {len(pipelines)} pipelines, {failed} failed")
    print("environment: " + json.dumps(env, sort_keys=True))
    for p in pipelines:
        if p.error:
            print(f"  pipeline {p.index} (seed {p.seed}) failed: {p.error}")
        elif p.band:
            print(f"  pipeline {p.index} (seed {p.seed}) outside the reference "
                  f"band: {p.band}")
    in_band = sum(1 for p in ok if not p.band)
    print(f"  reference band: {in_band}/{len(ok)} passing pipelines inside "
          f"(at least {in_band_min:.0%} required)")
    print(f"  {'pipeline_s':<16}{e2e['pipeline_s']:.4f} s (median of {len(timed)})")
    print(f"  {'setup_s':<16}{e2e['setup_s']:.4f} s (median of "
          f"{len(setup_samples)} set-ups)")
    print(f"  {'oracle_queries':<16}{e2e['oracle_queries']:.0f} count per pipeline")
    print(f"  {'oracle_samples':<16}{e2e['oracle_samples']:.0f} rows per pipeline")
    quality = {
        "disease_acc": _median(p.ude["accuracy"] for p in ok),
        "eo_pos": _median(p.ude["eo_pos"] for p in ok),
        "one_minus_di": _median(p.ude["one_minus_di"] for p in ok),
        "group_leak": _median(abs(p.sa_acc_edited - 0.5) for p in ok),
    }
    for name, value in quality.items():
        print(f"  {name:<16}{value:.4f} fraction (median of {len(ok)})")
    print(f"  {'peak_rss_mb':<16}{e2e['peak_rss_mb']:.1f} MB")
    print(f"  {'error_rate':<16}{failed / max(len(pipelines), 1):.4f} "
          f"({failed}/{len(pipelines)} pipelines)")
    if layer:
        for name, value in layer.items():
            print(f"  {name:<40}{value:.6g} {per_layer_unit(name)}")
    return quality


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ude", "__init__.py")):
        print(f"error: no ude package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})  # inherited by every child
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    import spans
    import workloads

    work_dir = os.path.join(OUT, "work", args.workload)
    out_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(out_dir, exist_ok=True)
    env = environment(len(cpus), cpus[-1], args.workload)

    setup_samples = [time_setup(args.workload, os.path.join(work_dir, f"probe{k}"))
                     for k in range(SETUP_TRIALS)]
    tracer = spans.Tracer() if args.trace else None
    wl = workloads.make(args.workload)
    pipelines = []
    try:
        wl.setup(work_dir, traced=bool(args.trace))
        min_pipelines = 2 if tracer else 1
        deadline = time.perf_counter() + args.seconds
        while len(pipelines) < min_pipelines or time.perf_counter() < deadline:
            i = len(pipelines)
            p = workloads.Pipeline(i, workloads.pipeline_seed(args.seed, i),
                                   traced=tracer is not None and i % 2 == 1)
            if p.traced:
                wl.run(p, functools.partial(tracer.run_pipeline, i))
            else:
                wl.run(p)
            pipelines.append(p)
            if wl.lost:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        server_stats = wl.close()

    for p in pipelines:
        if not p.error:
            p.error = "; ".join(wl.check(p))
    checked = [p for p in pipelines if not p.error]
    if sum(1 for p in checked if not p.band) < wl.in_band_min * len(checked):
        for p in checked:
            if p.band:
                p.error = f"outside the reference band: {p.band}"
    ok = [p for p in pipelines if not p.error]
    timed = [p for p in ok if not p.traced]
    e2e = end_to_end(timed, setup_samples, peak_rss_mb)
    layer = per_layer(tracer, pipelines, server_stats) if tracer else {}
    quality = print_summary(args.workload, env, pipelines, ok, timed, e2e,
                            setup_samples, layer, wl.in_band_min)

    stem = f"seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(os.path.join(out_dir, "spans.bin"),
                     os.path.join(out_dir, "spans.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "pipelines": [[p.index, p.seed, p.traced] for p in pipelines]})
    metrics = {m: layer[m] for m in PER_LAYER} if tracer else e2e
    units = {m: per_layer_unit(m) for m in PER_LAYER} if tracer else END_TO_END_UNITS
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "environment": env,
                   "setup_samples_s": setup_samples, "end_to_end": e2e,
                   "quality": quality, "per_layer": layer,
                   "server": server_stats,
                   "pipelines": [vars(p) for p in pipelines]}, fh, indent=2)
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "correct": bool(pipelines) and len(ok) == len(pipelines),
        "attempted": len(pipelines),
        "failed": len(pipelines) - len(ok),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
