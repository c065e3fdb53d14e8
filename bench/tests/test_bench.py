"""The benchmark's own tests, at a tiny size.

Run with `PYTHONPATH=src python -m pytest -q bench/tests`.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import EXHAUSTED, Outcome  # noqa: E402
from workloads import Expected  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "eval-inversion": lambda seed, seconds: workloads.eval_inversion(seed, seconds, wide=False),
    "eval-direct": lambda seed, seconds: workloads.eval_direct(seed, seconds, groups=2),
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    harness.import_library()
    monkeypatch.setattr(harness, "OUT", tmp_path / "out")
    monkeypatch.setattr(harness, "SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads, "GENERATORS", TINY)


def summary(result):
    *_, last = harness.report(result).splitlines()
    return json.loads(last)


def test_spec_matches_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(TINY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    out = summary(harness.run_eval(workload, 7, 0.1, bool(trace)))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = out["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert value > 0


def test_corrupted_value_counts_as_failure():
    from exactframes import cli

    def corrupt(doc, i, reg):
        report = cli.run_task(doc, i, registry=reg)
        return report.replace("value = ", "value = 1/3 ") if i == 3 else report

    result = harness.run_eval("eval-direct", 7, 0.1, False, execute=corrupt)
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0
    assert not summary(result)["correct"]


def test_swallowed_certified_failure_counts_as_failure():
    from exactframes import cli
    from exactframes.errors import PrecisionExhaustionError

    def swallow(doc, i, reg):
        try:
            return cli.run_task(doc, i, registry=reg)
        except PrecisionExhaustionError:
            return f"task {i}\nvalue = 0\nerror <= 2^-{doc.tasks[i].precision}"

    result = harness.run_eval("eval-direct", 7, 0.1, False, execute=swallow)
    assert result["failed"] > 0
    assert not summary(result)["correct"]


def test_value_checks():
    eps = Fraction(1, 1 << 32)
    vec = Expected("vector", {0: Fraction(1, 3)})
    assert checks.judge(vec, Outcome(f"t\nvalue = 0:{Fraction(1, 3) + eps}\nerror <= 2^-32"), 32) is None
    assert checks.judge(vec, Outcome(f"t\nvalue = 0:{Fraction(1, 3) + 2 * eps}\nerror <= 2^-32"), 32)
    assert checks.judge(vec, Outcome("t\nvalue = 0:1/3\nerror <= 2^-64"), 32)
    norm = Expected("norm", Fraction(2))
    assert checks.judge(norm, Outcome("t\nvalue = 181/128\nerror <= 2^-6"), 6) is None
    assert checks.judge(norm, Outcome("t\nvalue = 3/2\nerror <= 2^-6"), 6)
    # an understated datum may fail with certified exhaustion, or return
    # the right value, but nothing else
    gated = Expected("scalar", Fraction(1, 2), may_exhaust=True)
    assert checks.judge(gated, Outcome(error=EXHAUSTED), 32) is None
    assert checks.judge(gated, Outcome("t\nvalue = 1/2\nerror <= 2^-32"), 32) is None
    assert checks.judge(gated, Outcome("t\nvalue = 0\nerror <= 2^-32"), 32)
    assert checks.judge(vec, Outcome(error=EXHAUSTED), 32)


def test_cauchy_consistency_is_checked():
    exp = Expected("scalar", Fraction(0), slack=Fraction(1))
    low = Outcome("t\nvalue = 0\nerror <= 2^-32")
    high = Outcome(f"t\nvalue = {Fraction(1, 1 << 30)}\nerror <= 2^-64")
    assert checks.check_pass([exp, exp], [32, 64], [(0, 1)], [low, high]) == [
        (1, "precision-32 and precision-64 answers disagree")]


def test_generators_are_seeded():
    for make in (workloads.eval_inversion, workloads.eval_direct):
        assert make(3, 30).text == make(3, 30).text
        assert make(3, 30).text != make(4, 30).text


def test_dual_reference_matches_truncated_matrix_inverse():
    terms = workloads.specker_terms([1, 3])
    f = {0: Fraction(1), 2: Fraction(-1, 3)}
    size = 12
    lower = workloads.transpose(workloads.upper_toeplitz_matrix(terms, size))
    x = workloads.lower_toeplitz_solve(terms, f, size)
    assert workloads.matrix_apply(lower, x) == {k: q for k, q in f.items()}


def test_tracer_restores_the_library():
    from exactframes import gframes, hilbert, realcore

    before = (realcore.certified_tail_cut, gframes.certified_tail_cut,
              hilbert.VectorName.__dict__["approx"], realcore.CRealSeq.__dict__["from_values"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gframes.certified_tail_cut is not before[1]
        assert gframes.certified_tail_cut.__wrapped__ is before[0]
    finally:
        tracer.remove()
    after = (realcore.certified_tail_cut, gframes.certified_tail_cut,
             hilbert.VectorName.__dict__["approx"], realcore.CRealSeq.__dict__["from_values"])
    assert all(a is b for a, b in zip(before, after))


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "eval-direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
