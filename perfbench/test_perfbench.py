"""Tests of the benchmark itself, at the tiny sizes (one pass each).

    PYTHONPATH=src python -m pytest -q perfbench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(autouse=True)
def isolated(monkeypatch, tmp_path):
    """Clear the budget and cache variables, keep span files out of the
    tree, set up only the minimum number of times, and put back the ucycle
    modules other tests imported, since a run re-imports ucycle."""
    for var in run.CLEARED_ENV:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    saved = {k: v for k, v in sys.modules.items()
             if k == "ucycle" or k.startswith("ucycle.")}
    yield
    for k in [k for k in sys.modules if k == "ucycle" or k.startswith("ucycle.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def tiny_run(name, tmp_path, trace=False):
    return run.run_workload(name, seed=3, seconds=0, trace=trace, tiny=True,
                            work=str(tmp_path))


def test_spec_names_the_workloads_and_metrics():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        units = {**run.END_TO_END, **run.PER_LAYER}
        assert m["unit"] == units[m["name"]]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_emits_every_end_to_end_metric(name, tmp_path):
    lines, result = tiny_run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("failed_frac=0.0000" in ln for ln in lines)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_trace_emits_every_per_layer_metric(name, tmp_path):
    lines, result = tiny_run(name, tmp_path, trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert any(ln.startswith("# search.decide_valid") for ln in lines)


def test_trace_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        _, result = tiny_run("cli-construct", tmp_path, trace=True)
        m = result["metrics"]
        counts.append([m[k]["value"] for k in (
            "search.nodes", "core.verify_cover.calls",
            "decomp.exact_fallbacks")])
    assert counts[0] == counts[1] and counts[0][0] > 0


def patched_import(monkeypatch, patch):
    real = run.fresh_import

    def fake():
        mods = real()
        patch(mods)
        return mods
    monkeypatch.setattr(run, "fresh_import", fake)


def test_wrong_verdict_counts_as_failure(monkeypatch, tmp_path):
    def flip(mods):
        decide = mods.search.decide_valid
        mods.search.decide_valid = lambda *a, **k: dataclasses.replace(
            decide(*a, **k), verdict="valid")
    patched_import(monkeypatch, flip)
    lines, result = tiny_run("refute25", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert any("failed_frac=1.0000" in ln for ln in lines)


def test_exit_code_3_counts_as_failure(monkeypatch, tmp_path):
    def budget_out(mods):
        main = mods.cli.main
        mods.cli.main = lambda argv: 3 if argv[0] == "decompose" else main(argv)
    _, _, _, ops = run.set_up("cli-construct", 3, True, str(tmp_path))
    decomposes = sum(op.label.startswith("decompose") for op in ops)
    patched_import(monkeypatch, budget_out)
    lines, result = tiny_run("cli-construct", tmp_path)
    failed = [ln for ln in lines if ln.startswith("# FAILED")]
    assert result["failed"] == decomposes > 0
    assert result["attempted"] > result["failed"]
    assert failed and all("decompose" in ln and ln.endswith("exit code 3")
                          for ln in failed)


def test_missing_class_counts_as_failure(monkeypatch, tmp_path):
    def drop_one(mods):
        reps = mods.core.affine_class_representatives
        mods.core.affine_class_representatives = lambda *a: reps(*a)[1:]
    patched_import(monkeypatch, drop_one)
    lines, result = tiny_run("witness25", tmp_path)
    assert not result["correct"] and result["failed"] == 1
    assert any("FAILED class count" in ln for ln in lines)


def test_refcheck_rejects_a_broken_cycle():
    assert refcheck.covers((0, 0, 0, 1, 0, 1, 1, 1), 2, 3, (0, 1, 2))
    assert not refcheck.covers((0, 0, 0, 1, 0, 1, 1, 0), 2, 3, (0, 1, 2))
    assert refcheck.canonical((5, 6, 8), 16) == (0, 1, 3)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it must exit non-zero
    without printing a result."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "refute25",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
