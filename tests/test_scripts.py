"""Each script under scripts/ runs on its smallest input and prints its table."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# script -> (smallest argv, table header, lines printed)
CASES = {
    "run_reference_pipeline.py": (
        ["--seeds", "1", "--modes", "whitebox"],
        "mode seed sa_clean sa_edit |eps| | erm_acc erm_EOp erm_DI | ude_acc ude_EOp ude_DI",
        3),
}


def test_every_script_has_a_case():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("script", sorted(CASES), ids=lambda name: name[:-3])
def test_script_prints_its_table(script):
    args, header, lines = CASES[script]
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0].split() == header.split()
    assert len(out) == lines
