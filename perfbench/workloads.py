"""The benchmark's workloads: full debiasing pipelines run one seed after
another in a closed loop, each timed from generation to both fairness
reports, plus the output check every pipeline has to pass.

- `whitebox`: in-memory `run_experiment`, mode whitebox, in-process gradient
  oracle. Head training dominates; the encoder sees a few large calls.
- `gezo`: in-memory `run_experiment`, mode gezo, in-process forward-only
  oracle. The encoder sees many small calls.
- `gezo-remote`: staged `ude run --mode gezo --oracle <addr>` through
  `ude.cli.main`, against a `ude serve` child process over loopback. The only
  workload on the staged path (cmd_* stages, tensor files, manifests).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import ude.cli
import ude.oracle
from ude.fairness import FairnessReport
from ude.models import build_encoder
from ude.oracle import FORWARD_WITH_INPUT_GRAD, InProcessOracle, RemoteOracle
from ude.pipeline import PipelineConfig, run_experiment
from ude.tensor_io import tensor_digest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(BENCH_DIR, "serve.py")
SERVER_START_TIMEOUT_S = 60
SERVER_STOP_TIMEOUT_S = 10
# README reference band: the debiased head's group accuracy on edited inputs
# must lie within this distance of chance
GROUP_LEAK_MAX = 0.1
# Share of a run's pipelines that must sit inside the band. The acceptance
# suite states the debiasing claims over a seed set, white-box on 4 of 5
# seeds and GeZO on 3 of 5, and a GeZO edit misses the band on rare seeds;
# a single miss is reported, and the misses fail only a run below the share.
IN_BAND_MIN = {"whitebox": 0.8, "gezo": 0.6}


def pipeline_seed(workload_seed: int, index: int) -> int:
    """Pipeline seeds come from the workload seed alone, never from the
    program, so a change to the program cannot change the inputs."""
    digest = hashlib.sha256(f"ude-bench:{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def gezo_expected_queries(cfg: PipelineConfig, staged: bool) -> int:
    """Logical embed() calls of one GeZO pipeline: epochs*R*2*C candidate
    evaluations, plus the group-head, two disease-head and two evaluation
    embeds. The staged train-sa stage embeds the training set once more to
    report the group head's training accuracy."""
    g = cfg.gezo
    return g.epochs * g.local_iters * 2 * g.samples + 5 + int(staged)


@dataclass
class Pipeline:
    index: int
    seed: int
    traced: bool
    seconds: float = 0.0
    queries: int = 0
    samples: int = 0
    erm: dict = field(default_factory=dict)  # accuracy, eo_pos, one_minus_di
    ude: dict = field(default_factory=dict)
    sa_acc_edited: float | None = None
    edit_sha256: str = ""
    improved: int = 0  # GeZO local iterations that improved the edit
    iterations: int = 0
    error: str = ""
    band: str = ""  # how the reports miss the README reference band, if they do


def _report(rep) -> dict:
    if isinstance(rep, FairnessReport):
        return {"accuracy": rep.accuracy, "eo_pos": rep.eo_pos,
                "one_minus_di": rep.one_minus_di_abs}
    return {"accuracy": rep["accuracy"], "eo_pos": rep["eo_pos"],
            "one_minus_di": rep["one_minus_di_abs"]}


def _improvement(iteration_trace) -> tuple[int, int]:
    return sum(1 for rec in iteration_trace if rec["improved"]), len(iteration_trace)


def band_problems(p: Pipeline) -> list[str]:
    """The README reference band for one pipeline's reports."""
    problems = []
    if p.ude["accuracy"] < p.erm["accuracy"]:
        problems.append(f"debiased accuracy {p.ude['accuracy']:.3f} below ERM "
                        f"{p.erm['accuracy']:.3f}")
    if not p.ude["eo_pos"] < p.erm["eo_pos"]:
        problems.append(f"debiased EO_p {p.ude['eo_pos']:.3f} not below ERM "
                        f"{p.erm['eo_pos']:.3f}")
    if p.sa_acc_edited is None or abs(p.sa_acc_edited - 0.5) > GROUP_LEAK_MAX:
        problems.append(f"group-head accuracy on edited inputs {p.sa_acc_edited} "
                        f"not within {GROUP_LEAK_MAX} of 0.5")
    return problems


def _plain(fn, *args, **kwargs):
    return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# embedding server child process

def start_server(work_dir: str, stats_path: str | None = None):
    """Start `ude serve` on an ephemeral loopback port; returns (process,
    address) once the server has printed its bound address. With a stats
    path, the traced launcher runs the server instead."""
    serve_args = ["serve", "--address", "127.0.0.1:0",
                  "--out", os.path.join(work_dir, "server")]
    if stats_path is None:
        cmd = [sys.executable, "-m", "ude.cli", *serve_args]
    else:
        cmd = [sys.executable, LAUNCHER, "--stats", stats_path, "--", *serve_args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], SERVER_START_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    if not line.strip():
        stop_process(proc)
        raise RuntimeError("embedding server did not report its address")
    return proc, line.split()[-1]


def stop_process(proc) -> int:
    """Terminate a child (a server or a set-up probe) and reap it; returns
    its exit code."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode


def connect_check(address: str, dim: int) -> None:
    """One round trip, then hang up: the server serves one connection at a
    time, so an idle client would block the pipeline's own connections."""
    oracle = RemoteOracle(address)
    try:
        oracle.embed(np.zeros((1, dim), dtype=np.float32))
    finally:
        oracle.close()


def build_inprocess(cfg: PipelineConfig):
    """The encoder and the two in-process oracles, warmed by one embed."""
    enc = build_encoder(seed=cfg.encoder_seed, input_dim=cfg.synth.dim)
    fwd = InProcessOracle(enc)
    grad = InProcessOracle(enc, capability=FORWARD_WITH_INPUT_GRAD)
    fwd.embed(np.zeros((1, cfg.synth.dim), dtype=np.float32))
    return fwd, grad


# ---------------------------------------------------------------------------
# workloads

class InMemory:
    """`run_experiment` with benchmark-owned in-process oracles."""

    def __init__(self, mode: str):
        self.mode = mode
        self.in_band_min = IN_BAND_MIN[mode]
        self.lost = False

    def setup(self, work_dir: str, traced: bool) -> None:
        self.fwd, self.grad = build_inprocess(PipelineConfig())

    def run(self, p: Pipeline, call=_plain) -> None:
        cfg = PipelineConfig(seed=p.seed, mode=self.mode)
        grad = self.grad if self.mode == "whitebox" else None
        before = [o.query_counter for o in (self.fwd, self.grad)]
        try:
            t0 = time.perf_counter()
            res = call(run_experiment, cfg, oracle=self.fwd, grad_oracle=grad)
            p.seconds = time.perf_counter() - t0
        except Exception as exc:  # a failed pipeline is counted, not fatal
            p.error = f"{type(exc).__name__}: {exc}"
            return
        after = [o.query_counter for o in (self.fwd, self.grad)]
        p.queries = sum(a[0] - b[0] for a, b in zip(after, before))
        p.samples = sum(a[1] - b[1] for a, b in zip(after, before))
        p.erm, p.ude = _report(res.erm_report), _report(res.ude_report)
        p.sa_acc_edited = res.sa_acc_edited
        p.edit_sha256 = tensor_digest(res.edit.eps)
        p.improved, p.iterations = _improvement(res.edit.iteration_trace)

    def close(self) -> dict:
        return {}

    def check(self, p: Pipeline) -> list[str]:
        """Problems that fail the pipeline; sets p.band."""
        p.band = "; ".join(band_problems(p))
        problems = []
        if self.mode == "gezo":
            expected = gezo_expected_queries(PipelineConfig(), staged=False)
            if p.queries != expected:
                problems.append(f"{p.queries} logical queries, expected {expected}")
        return problems


class StagedRemote:
    """`ude run --mode gezo --oracle <addr>` against a `ude serve` child."""

    in_band_min = IN_BAND_MIN["gezo"]

    def __init__(self):
        self.lost = False
        self.proc = None
        self.stats_path = None
        self.calls = 0
        self.samples = 0
        self._orig_count = None

    def setup(self, work_dir: str, traced: bool) -> None:
        self.work_dir = work_dir
        cfg = PipelineConfig()
        if traced:
            self.stats_path = os.path.join(work_dir, "server_stats.json")
        self.proc, self.address = start_server(work_dir, self.stats_path)
        connect_check(self.address, cfg.synth.dim)
        self._hook_query_count()

    def _hook_query_count(self) -> None:
        """Tally the client's own logical query count: the stages create
        their RemoteOracle objects internally."""
        cls = ude.oracle.RemoteOracle
        self._owned = "_count" in vars(cls)
        self._orig_count = orig = cls._count
        tally = self

        def _count(oracle, batch_size, *args, **kwargs):
            tally.calls += 1
            tally.samples += batch_size
            return orig(oracle, batch_size, *args, **kwargs)

        cls._count = _count

    def _unhook_query_count(self) -> None:
        cls = ude.oracle.RemoteOracle
        if self._orig_count is None:
            return
        if self._owned:
            cls._count = self._orig_count
        else:
            del cls._count
        self._orig_count = None

    def run(self, p: Pipeline, call=_plain) -> None:
        out = os.path.join(self.work_dir, f"p{p.index}")
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--mode", "gezo", "--oracle", self.address,
                "--out", out, "--seed", str(p.seed)]
        calls, samples = self.calls, self.samples
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = call(ude.cli.main, argv)
            p.seconds = time.perf_counter() - t0
            if rc != 0:
                p.error = f"ude run exited with code {rc}"
            else:
                self._read_outputs(p, out)
        except Exception as exc:  # a failed pipeline is counted, not fatal
            p.error = f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        p.queries, p.samples = self.calls - calls, self.samples - samples
        if self.proc.poll() is not None:
            self.lost = True
            lost = f"server exited with code {self.proc.returncode}"
            p.error = f"{p.error}; {lost}" if p.error else lost

    @staticmethod
    def _read_outputs(p: Pipeline, out: str) -> None:
        with open(os.path.join(out, "reports", "evaluation.json")) as fh:
            reports = json.load(fh)
        p.erm, p.ude = _report(reports["erm"]), _report(reports["ude"])
        with open(os.path.join(out, "edit", "eps.udet"), "rb") as fh:
            p.edit_sha256 = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(out, "edit", "provenance.json")) as fh:
            p.improved, p.iterations = _improvement(json.load(fh)["iteration_trace"])

    def close(self) -> dict:
        """Stop and reap the server; the traced launcher's totals, if any."""
        self._unhook_query_count()
        if self.proc is None:
            return {}
        stop_process(self.proc)
        self.proc = None
        if self.stats_path and os.path.exists(self.stats_path):
            with open(self.stats_path) as fh:
                return json.load(fh)
        return {}

    def check(self, p: Pipeline) -> list[str]:
        """Problems that fail the pipeline; sets p.band. The staged remote
        edit must be byte-identical to the in-process GeZO edit for the same
        seed; that reference run also gives the group head's accuracy on
        edited inputs, which the staged run does not report."""
        cfg = PipelineConfig(seed=p.seed, mode="gezo")
        ref = run_experiment(cfg)
        problems = []
        ref_sha = tensor_digest(ref.edit.eps)
        if p.edit_sha256 != ref_sha:
            problems.append(f"remote edit sha256 {p.edit_sha256[:12]} != "
                            f"in-process {ref_sha[:12]}")
        p.sa_acc_edited = ref.sa_acc_edited
        p.band = "; ".join(band_problems(p))
        expected = gezo_expected_queries(cfg, staged=True)
        if p.queries != expected:
            problems.append(f"{p.queries} logical queries, expected {expected}")
        return problems


def make(name: str):
    if name == "gezo-remote":
        return StagedRemote()
    return InMemory(name)
