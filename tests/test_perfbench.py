"""Each perfbench workload runs one pipeline with its own workload object and
passes its own checks, so a program change that breaks the benchmark's
query count or edit check fails here first."""

import os
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["whitebox", "gezo", "gezo-remote"])
def test_one_pipeline_passes_the_workload_check(name, tmp_path, monkeypatch):
    # the gezo-remote server is a child process that imports ude from src
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    monkeypatch.setenv("PYTHONPATH", path)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    workload = workloads.make(name)
    try:
        workload.setup(str(tmp_path), traced=False)
        p = workloads.Pipeline(index=0, seed=workloads.pipeline_seed(1, 0), traced=False)
        workload.run(p)
        assert p.error == ""
        assert workload.check(p) == []
    finally:
        workload.close()
    assert not workload.lost


def test_a_traced_remote_pipeline_passes_the_workload_check(tmp_path, monkeypatch):
    # the traced launcher, serve.py, looks up the ude names it wraps before
    # the server starts; a missing one stops it before it reports an address
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    monkeypatch.setenv("PYTHONPATH", path)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    workload = workloads.make("gezo-remote")
    try:
        workload.setup(str(tmp_path), traced=True)
        p = workloads.Pipeline(index=0, seed=workloads.pipeline_seed(1, 0), traced=False)
        workload.run(p)
        assert p.error == ""
        assert workload.check(p) == []
    finally:
        workload.close()
    assert not workload.lost
