"""Each script in scripts/ runs to exit 0 and prints one row per case."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import ucycle

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
SRC = str(pathlib.Path(ucycle.__file__).resolve().parents[1])

# script -> (arguments, pattern of a row's case, the cases in order)
CASES = {
    "decomposition_grid.py": (
        ["--max-n", "6"], r"^n=\s*(\d+) d=\s*(\d+) ",
        [(str(n), str(d)) for n in range(1, 7)
         for d in range(1, n * n + 1) if n * n % d == 0]),
    "approx_sweep.py": (
        ["--q", "2", "--n", "3", "--seeds", "2", "--factors", "1", "2"],
        r"^\s*(\d+\.\d)\s+(\d+)\s", [("1.0", "8"), ("2.0", "16")]),
}


def test_every_script_has_a_case():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_prints_one_row_per_case(script):
    args, pattern, cases = CASES[script]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert re.findall(pattern, proc.stdout, re.M) == cases
