"""Checks of the benchmark itself: frozen inputs, metric names, the gate.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_frozen_corpus_matches_acceptance_tests():
    path = ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    live = tuple(module.CORPUS)
    added = [f for f in live if f not in inputs.CORPUS]
    dropped = [f for f in inputs.CORPUS if f not in live]
    assert live == inputs.CORPUS, (
        "tests/test_acceptance.py::CORPUS drifted from the frozen benchmark "
        "copy: added %r, dropped %r" % (added, dropped))


def tiny(name, **changes):
    """The workload cut down to a few cases and words."""
    shape = inputs.workload(name)
    cases = {
        "corpus": shape["cases"][:12],
        "past_width": [inputs.past_width_case(1), inputs.past_width_case(3),
                       ("G(p <-> Y q)", ["p", "q"])],
        "alphabet_width": shape["cases"][:4],
    }[name]
    shape.update(cases=cases, words=20)
    if name == "past_width":
        shape["case_cap_s"] = 1.0   # n = 3 cannot finish in this
    shape.update(changes)
    return shape


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_every_metric_is_reported(name):
    result, report = run.run_workload(name, 3, 0, False, tiny(name))
    assert result["correct"] and result["failed"] == 0, report
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    if name == "past_width":
        assert result["metrics"]["decided_share"]["value"] == 2 / 3

    traced, report = run.run_workload(name, 3, 0, True, tiny(name))
    assert traced["correct"], report
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(traced["metrics"]) == names
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]


def test_emptied_rabin_pairs_are_counted_as_mismatches():
    shape = tiny("corpus", sabotage=True)
    result, report = run.run_workload("corpus", 3, 0, False, shape)
    line = next(x for x in report if x.strip().startswith("mismatches"))
    mismatches = int(re.search(r"mismatches\s+(\d+)", line).group(1))
    assert mismatches > 0
    assert result["failed"] == mismatches
    assert not result["correct"]


def test_same_seed_gives_same_words():
    a = inputs.random_words(5, "k", ["p", "q"], 50)
    assert a == inputs.random_words(5, "k", ["q", "p"], 50)
    assert a != inputs.random_words(6, "k", ["p", "q"], 50)


def test_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
