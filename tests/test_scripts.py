"""Each script under scripts/ runs on its smallest input and prints its table."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

MODULES = sorted((ROOT / "src" / "ude").glob("*.py"))

# script -> (smallest argv, table header, lines printed)
CASES = {
    "code_lines.py": ([], "module code docstring comment blank", len(MODULES) + 2),
    "run_reference_pipeline.py": (
        ["--seeds", "1", "--modes", "whitebox"],
        "mode seed sa_clean sa_edit |eps| | erm_acc erm_EOp erm_DI | ude_acc ude_EOp ude_DI",
        3),
}

# script -> malformed argvs, each refused with exit 2 and the usage before
# anything is printed
REFUSALS = {
    "code_lines.py": [["src/ude"]],
    "run_reference_pipeline.py": [
        ["--modes", "foo"], ["--modes", "whitebox,"], ["--seeds", "1,,2"],
        ["--seeds", ""], ["--seeds", "1.5"]],
}


def _run(script, args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def test_every_script_has_a_case():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("script", sorted(CASES), ids=lambda name: name[:-3])
def test_script_prints_its_table(script):
    args, header, lines = CASES[script]
    proc = _run(script, args)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0].split() == header.split()
    assert len(out) == lines


@pytest.mark.parametrize("script,args", [(script, args) for script in sorted(REFUSALS)
                                         for args in REFUSALS[script]],
                         ids=lambda value: value[:-3] if isinstance(value, str)
                         else " ".join(value))
def test_script_refuses_malformed_arguments(script, args):
    proc = _run(script, args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert "Traceback" not in proc.stderr


def test_code_lines_sum_to_each_module_and_the_total():
    proc = _run("code_lines.py", [])
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    lines = [len(path.read_text().splitlines()) for path in MODULES]
    assert [row[0] for row in rows] == [path.name for path in MODULES] + ["total"]
    assert [sum(map(int, row[1:])) for row in rows] == lines + [sum(lines)]
    assert [sum(int(row[i]) for row in rows[:-1]) for i in range(1, 5)] == list(
        map(int, rows[-1][1:]))
