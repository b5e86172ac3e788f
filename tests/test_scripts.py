"""Each script under scripts/ runs on its smallest input and prints its table."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv,header,lines", [
    (["run_reference_pipeline.py", "--seeds", "1", "--modes", "whitebox"],
     "mode seed sa_clean sa_edit |eps| | erm_acc erm_EOp erm_DI | ude_acc ude_EOp ude_DI",
     3),
    (["sweep_hyperparameters.py", "lambda", "--values", "0.01", "--seeds", "1"],
     "lambda |eps| Acc EO_p |1-DI| (mean over seeds [1])", 2),
], ids=["run_reference_pipeline", "sweep_hyperparameters"])
def test_script_prints_its_table(argv, header, lines):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0].split() == header.split()
    assert len(out) == lines
