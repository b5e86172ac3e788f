"""Span tracing of the `ude` package from outside the program.

The tracer wraps public functions of the `ude.*` modules at every import
site: `from .x import y` binds `y` once per importing module, so each global
binding of the original function object in every loaded `ude` module is
replaced, and the two oracle classes get their `embed` method replaced.
Spans (id, parent, pipeline, name, start, end and two work counters) are kept
in memory as one flat int64 array and written once, at the end of a run.

`install()` and `uninstall()` swap the wrappers in and out, so one process
can alternate traced and untraced pipelines and measure the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# span name -> (defining module, attribute)
FUNCTIONS = {
    "numerics.optimizer_step": ("ude.numerics", "optimizer_step"),
    "numerics.cross_entropy_batch": ("ude.numerics", "cross_entropy_batch"),
    "numerics.cross_entropy_grad": ("ude.numerics", "cross_entropy_grad"),
    "models.train_head": ("ude.models", "train_head"),
    "models.head_forward": ("ude.models", "head_forward"),
    "models.encoder_forward": ("ude.models", "encoder_forward"),
    "models.encoder_input_grad": ("ude.models", "encoder_input_grad"),
    "editing.learn_ude_whitebox": ("ude.editing", "learn_ude_whitebox"),
    "editing.edit_objective_grad": ("ude.editing", "edit_objective_grad"),
    "editing.edit_objective_batch": ("ude.editing", "edit_objective_batch"),
    "editing.train_fair_disease": ("ude.editing", "train_fair_disease"),
    "gezo.learn_ude_gezo": ("ude.gezo", "learn_ude_gezo"),
    "gezo.greedy_gradient": ("ude.gezo", "greedy_gradient"),
    "pipeline.cmd_generate": ("ude.pipeline", "cmd_generate"),
    "pipeline.cmd_train_sa": ("ude.pipeline", "cmd_train_sa"),
    "pipeline.cmd_learn_edit": ("ude.pipeline", "cmd_learn_edit"),
    "pipeline.cmd_train_disease": ("ude.pipeline", "cmd_train_disease"),
    "pipeline.cmd_evaluate": ("ude.pipeline", "cmd_evaluate"),
    "tensor_io.save_tensor": ("ude.tensor_io", "save_tensor"),
    "tensor_io.load_tensor": ("ude.tensor_io", "load_tensor"),
    "datagen.generate": ("ude.datagen", "generate"),
    "fairness.evaluate": ("ude.fairness", "evaluate"),
}

# span name -> (defining module, class, method); both classes share one name
METHODS = [
    ("oracle.embed", "ude.oracle", "InProcessOracle", "embed"),
    ("oracle.embed", "ude.oracle", "RemoteOracle", "embed"),
]

ROOT = "pipeline"

# A direct child of the pipeline span with one of these names is that
# pipeline stage: the staged path calls the cmd_* functions, the in-memory
# `run_experiment` calls the stage bodies directly.
STAGE_OF = {
    "pipeline.cmd_generate": "generate",
    "pipeline.cmd_train_sa": "train_sa",
    "pipeline.cmd_learn_edit": "learn_edit",
    "pipeline.cmd_train_disease": "train_disease",
    "pipeline.cmd_evaluate": "evaluate",
    "datagen.generate": "generate",
    "models.train_head": "train_sa",
    "editing.learn_ude_whitebox": "learn_edit",
    "gezo.learn_ude_gezo": "learn_edit",
    "editing.train_fair_disease": "train_disease",
    "fairness.evaluate": "evaluate",
}
STAGES = ["generate", "train_sa", "learn_edit", "train_disease", "evaluate"]

FRAME_HEADER_BYTES = 13  # magic(4) + msg_type(1) + batch(4) + dim(4)
TENSOR_HEADER_BYTES = 7  # magic(4) + version(2) + rank(1)
COLUMNS = ["id", "parent", "pipeline", "name", "start_ns", "end_ns", "work1", "work2"]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _encoder_work(args, kwargs, result):
    """(rows, flops computed from shapes: 2 per multiply-add of each layer)."""
    enc = _arg(args, kwargs, 0, "enc")
    macs = sum(p.size for p in enc.parameters().values() if p.ndim == 2)
    return result.shape[0], 2 * result.shape[0] * macs


def _embed_work(args, kwargs, result):
    """(rows, request + response frame bytes computed from shapes; 0 in-process)."""
    rows = result.shape[0]
    if type(args[0]).__name__ != "RemoteOracle":
        return rows, 0
    dim = np.shape(_arg(args, kwargs, 1, "batch"))[1]
    return rows, 2 * FRAME_HEADER_BYTES + 4 * rows * (dim + result.shape[1])


def _tensor_bytes(arr) -> int:
    arr = np.asarray(arr)
    return TENSOR_HEADER_BYTES + 4 * arr.ndim + 4 * arr.size


WORK = {
    "models.encoder_forward": _encoder_work,
    "oracle.embed": _embed_work,
    "tensor_io.save_tensor":
        lambda args, kwargs, result: (_tensor_bytes(_arg(args, kwargs, 1, "arr")), 0),
    "tensor_io.load_tensor": lambda args, kwargs, result: (_tensor_bytes(result), 0),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self.spans = array("q")
        self.pipeline = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches = []  # (owner, attr, original, wrapper, owned)
        self._installed = False
        importlib.import_module("ude.cli")  # loads every module of the package
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "ude" or n.startswith("ude."))]
        for name, (modname, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig, wrapper, True))
        for name, modname, clsname, attr in METHODS:
            owner = getattr(sys.modules.get(modname), clsname, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{clsname}.{attr}")
                continue
            self._patches.append((owner, attr, orig, self._wrap(name, orig),
                                  attr in vars(owner)))

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        work = WORK.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, parent, tracer.pipeline, name_id, t0, t1, 0, 0))
            if work is not None:
                spans[-2], spans[-1] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, orig, _, owned in self._patches:
            if owned:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._installed = False

    def run_pipeline(self, pipeline_id: int, fn, *args, **kwargs):
        """Run fn as one traced pipeline under a root span."""
        self.pipeline = pipeline_id
        self.install()
        try:
            return self._wrap(ROOT, fn)(*args, **kwargs)
        finally:
            self.uninstall()
            self.pipeline = -1

    # -----------------------------------------------------------------------
    # aggregation

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(COLUMNS))

    def per_pipeline(self) -> dict[int, dict]:
        """pipeline id -> span name -> totals. `s` is inclusive time, `self_s`
        the span's duration minus its direct children's; `durations` and
        `work2_each` keep the per-call seconds and second work counter."""
        t = self.table()
        if t.shape[0] == 0:
            return {}
        sid, parent, pid, name = t[:, 0], t[:, 1], t[:, 2], t[:, 3]
        dur = (t[:, 5] - t[:, 4]).astype(np.float64) * 1e-9
        child = np.zeros(int(sid.max()) + 1)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child[sid]
        is_root = name == self.names.index(ROOT)
        out: dict[int, dict] = {}
        for p in np.unique(pid):
            rows = pid == p
            stats: dict[str, dict] = {}
            for n in np.unique(name[rows]):
                sel = rows & (name == n)
                stats[self.names[n]] = {
                    "calls": int(sel.sum()),
                    "s": float(dur[sel].sum()),
                    "self_s": float(self_s[sel].sum()),
                    "work1": int(t[sel, 6].sum()),
                    "work2": int(t[sel, 7].sum()),
                    "durations": dur[sel],
                    "work2_each": t[sel, 7],
                }
            stage_s = dict.fromkeys(STAGES, 0.0)
            direct = rows & np.isin(parent, sid[rows & is_root])
            for n, d in zip(name[direct], dur[direct]):
                stage = STAGE_OF.get(self.names[n])
                if stage is not None:
                    stage_s[stage] += float(d)
            out[int(p)] = {"spans": stats, "stages": stage_s,
                           "span_count": int(rows.sum())}
        return out

    def write(self, path_bin, path_json, meta: dict) -> None:
        """Spans as raw little-endian int64 rows plus a JSON index."""
        self.table().astype("<i8").tofile(path_bin)
        with open(path_json, "w") as fh:
            json.dump({"columns": COLUMNS, "names": self.names,
                       "missing_targets": self.missing,
                       "format": "int64 little-endian, one row of "
                                 f"{len(COLUMNS)} per span; name indexes names; "
                                 "parent -1 is a root",
                       **meta}, fh, indent=2)
