"""The exactframes benchmark: seeded workloads driven through the public
API in one process and one thread, as a closed loop with one client
(each task starts when the previous one ends, as `exactframes eval
--threads 1` does).

Every output is checked.  The human-readable lines name every metric
with its unit; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, measured with the library unmodified;
with --trace 1 they are the per-layer ones of tracing.py, from a traced
pass that follows an untraced pass of the same inputs.

Files written, all under .bench_out/ at the root of the checkout:
results/<workload>-seed<n>-trace<t>.json (every metric and the machine),
digests.json (report digest per workload and document, compared on
every later run of the same document) and spans/<workload>-seed<n>/ (the traced spans).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks
import tracing
import workloads
from checks import EXHAUSTED, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# fresh-process set-ups per run; their median is setup_s
SETUP_REPEATS = 15

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "task64_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

# the batteries of tests/test_acceptance.py, called with the same arguments
BATTERIES = (
    ("criterion1", "cauchy_consistency_battery", {"count": 1000}),
    ("criterion2", "riesz_roundtrip_battery", {"count": 100}),
    ("criterion3", "reduction_roundtrip_battery", {"count": 50}),
    ("criterion4", "reconstruction_battery", {}),
    ("criterion5", "richardson_battery", {}),
    ("criterion6", "dual_characterization_battery", {}),
    ("criterion7", "gallery_battery", {}),
    ("criterion8", "frame_inequality_battery", {}),
)

ACCEPTANCE = {
    "setup_s": "s",
    "acceptance_s": "s",
    "criterion4_s": "s",
    "criterion6_s": "s",
    "criterion8_s": "s",
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_library():
    init = SRC / "exactframes" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no exactframes sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import exactframes
    if Path(exactframes.__file__).resolve() != init.resolve():
        raise SetupError(f"exactframes imported from {exactframes.__file__}, "
                         f"not from {SRC}")
    return exactframes


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def measure_setup(mode: str, text: str = "") -> list[float]:
    """Fresh-process set-up times; one extra first run fills the bytecode
    cache and is not counted."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), mode],
            input=text, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  Below eleven samples it is the maximum."""
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100 * (k + 1) / len(ordered)


# ---------------------------------------------------------------------------
# eval workloads


@dataclass
class EvalPass:
    outcomes: list[Outcome]
    seconds: list[float]          # per task
    tasks_wall: float             # the task loop alone
    total_wall: float             # load + build + task loop
    digest: str


Execute = Callable[[object, int, object], str]


def eval_pass(text: str, tracer: Optional[tracing.Tracer] = None,
              execute: Optional[Execute] = None) -> EvalPass:
    """One document through one registry in document order."""
    from exactframes import cli
    from exactframes.errors import PrecisionExhaustionError

    if execute is None:
        def execute(doc, i, reg):
            return cli.run_task(doc, i, registry=reg)

    perf = time.perf_counter
    t0 = perf()
    doc = cli.load_document(text)
    reg = cli.build_registry(doc)
    outcomes, seconds = [], []
    start = perf()
    for i in range(len(doc.tasks)):
        if tracer is not None:
            tracer.task = i
        t = perf()
        try:
            out = Outcome(report=execute(doc, i, reg))
        except PrecisionExhaustionError:
            out = Outcome(error=EXHAUSTED)
        except Exception as exc:       # a wrong outcome: counted, not fatal
            out = Outcome(error=f"{type(exc).__name__}: {exc}")
        seconds.append(perf() - t)
        outcomes.append(out)
    end = perf()
    return EvalPass(outcomes, seconds, end - start, end - t0,
                    checks.digest(outcomes))


def eval_passes(doc: workloads.Document,
                execute: Optional[Execute] = None) -> list[EvalPass]:
    """The document's passes, each through a fresh registry.  Only the
    first pass keeps its reports; later passes must repeat them exactly,
    which their digests show."""
    passes: list[EvalPass] = []
    for _ in range(doc.passes):
        passes.append(eval_pass(doc.text, execute=execute))
        if len(passes) > 1:
            passes[-1].outcomes = []
        gc.collect()
    return passes


def eval_metrics(doc: workloads.Document, passes: list[EvalPass],
                 setup: list[float]) -> tuple[dict, list[str]]:
    """Latency statistics over each task's median latency across the
    passes; throughput is the median over the passes."""
    high = max(workloads.PRECISIONS)
    ms = [statistics.median(p.seconds[i] for p in passes) * 1000
          for i in range(len(passes[0].seconds))]
    tail_ms, pct = tail(ms)
    first = passes[0]
    ms64 = [m for m, n in zip(ms, doc.precisions) if n == high]
    metrics = {
        "setup_s": statistics.median(setup),
        "tasks_per_s": statistics.median(len(ms) / p.tasks_wall for p in passes),
        "task_ms_p50": statistics.median(ms),
        "task_ms_tail": tail_ms,
        "task64_ms_p50": statistics.median(ms64),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [f"{len(passes)} passes of {len(ms)} tasks; latencies are each "
             f"task's median over the passes; task_ms_tail is p{pct:.1f} of "
             f"{len(ms)} (ten or more tasks beyond it); task64_ms_p50 over "
             f"{len(ms64)} tasks; setup_s is the median of {len(setup)} "
             f"fresh processes"]
    failed = [m for m, e, o in zip(ms, doc.expected, first.outcomes)
              if e.may_exhaust and o.error == EXHAUSTED]
    if failed:
        notes.append(f"certified_fail_ms_p50 {statistics.median(failed)!r} ms "
                     f"(median over {len(failed)} expected "
                     f"PrecisionExhaustionError)")
    return metrics, notes


def run_eval(name: str, seed: int, seconds: float, trace: bool,
             execute: Optional[Execute] = None) -> dict:
    doc = workloads.GENERATORS[name](seed, seconds)
    expected = doc.expected
    if not trace:
        setup = measure_setup("eval", doc.text)
        gc.collect()
        passes = eval_passes(doc, execute)
        first = passes[0]
        wrong = checks.check_pass(expected, doc.precisions, doc.pairs, first.outcomes)
        digest = first.digest
        wrong += [(-1, f"pass {k} reports differ from pass 0")
                  for k, p in enumerate(passes) if p.digest != digest]
        mismatch = _digest_mismatch(name, doc.text, digest)
        if mismatch:
            wrong.append((-1, mismatch))
        # every task of the first pass, each later pass's digest, and the
        # digest against earlier runs of the same document
        attempted = len(first.outcomes) + len(passes)
        metrics, notes = eval_metrics(doc, passes, setup)
        units = END_TO_END
    else:
        p0 = eval_pass(doc.text, execute=execute)
        gc.collect()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            p1 = eval_pass(doc.text, tracer=tracer, execute=execute)
        finally:
            tracer.remove()
        wrong = checks.check_pass(expected, doc.precisions, doc.pairs, p0.outcomes)
        wrong += checks.check_pass(expected, doc.precisions, doc.pairs, p1.outcomes)
        attempted = 2 * len(p0.outcomes) + 1
        digest = p0.digest
        if p1.digest != digest:
            wrong.append((-1, "traced reports differ from untraced reports"))
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = p1.total_wall / p0.total_wall
        units = tracing.PER_LAYER
        notes = [f"traced pass {p1.total_wall:.3f} s, untraced {p0.total_wall:.3f} s, "
                 f"{len(tracer.sp_name)} spans kept, peak RSS {peak_rss_mb():.0f} MB"]
        notes += [f"unrecognised tail cut {w!r}: {n} calls"
                  for w, n in tracer.unknown_cuts.items()]
        tracer.write_spans(OUT / "spans" / f"{name}-seed{seed}")
    notes.append(f"{len(expected)} tasks, report digest {digest}")
    return _result(name, seed, seconds, trace, metrics, units, attempted, wrong, notes)


def _digest_mismatch(name: str, text: str, digest: str) -> Optional[str]:
    """Compare with the digest an earlier run of the same document left in
    this checkout, and record it for later runs."""
    key = f"{name}/{hashlib.sha256(text.encode()).hexdigest()}"
    path = OUT / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    before = known.get(key)
    if before is None:
        known[key] = digest
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return None
    return None if before == digest else f"report digest {digest} differs from {before}"


# ---------------------------------------------------------------------------
# acceptance


def acceptance_pass(tracer: Optional[tracing.Tracer] = None):
    from exactframes import suites

    rows = []
    for i, (name, fn, kwargs) in enumerate(BATTERIES):
        if tracer is not None:
            tracer.task = i
            tracer.reset_identity()
        t = time.perf_counter()
        try:
            results = getattr(suites, fn)(**kwargs)
            failed = [r.name for r in results if not r.ok]
            checked = len(results)
        except Exception as exc:       # a failed battery: counted, not fatal
            failed, checked = [f"{name} raised {type(exc).__name__}: {exc}"], 1
        rows.append((name, time.perf_counter() - t, checked, failed))
    return rows


def run_acceptance(seed: int, seconds: float, trace: bool) -> dict:
    """The eight batteries once; seed and seconds do not change them."""
    if not trace:
        setup = measure_setup("import")
        rows = acceptance_pass()
        by = {name: s for name, s, _, _ in rows}
        ms = [s * 1000 for _, s, _, _ in rows]
        tail_ms, pct = tail(ms)
        total = sum(by.values())
        metrics = {
            "setup_s": statistics.median(setup),
            "acceptance_s": total,
            "criterion4_s": by["criterion4"],
            "criterion6_s": by["criterion6"],
            "criterion8_s": by["criterion8"],
            "tasks_per_s": len(rows) / total,
            "task_ms_p50": statistics.median(ms),
            "task_ms_tail": tail_ms,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = ACCEPTANCE
        notes = [f"a task is one battery; task_ms_tail is p{pct:.0f} of {len(ms)}"]
    else:
        rows0 = acceptance_pass()
        gc.collect()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rows = acceptance_pass(tracer)
        finally:
            tracer.remove()
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (sum(r[1] for r in rows)
                                           / sum(r[1] for r in rows0))
        units = tracing.PER_LAYER
        notes = []
        tracer.write_spans(OUT / "spans" / f"acceptance-seed{seed}")
        rows = rows0 + rows
    wrong = [(-1, f) for _, _, _, failed in rows for f in failed]
    attempted = sum(r[2] for r in rows)
    notes += [f"{name} {s:.3f} s, {checked} checks, {len(failed)} failed"
              for name, s, checked, failed in rows]
    return _result("acceptance", seed, seconds, trace, metrics, units,
                   attempted, wrong, notes)


# ---------------------------------------------------------------------------
# reporting


def _result(name, seed, seconds, trace, metrics, units, attempted, wrong, notes):
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "machine": machine(), "attempted": attempted, "failed": len(wrong),
            "wrong": [f"task {i}: {why}" if i >= 0 else why for i, why in wrong],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            "notes": notes}


def report(result: dict) -> str:
    """Human-readable lines, then the one-line JSON summary."""
    m = result["machine"]
    lines = [f"workload {result['workload']} seed {result['seed']} "
             f"seconds {result['seconds']} trace {result['trace']}",
             f"machine nproc {m['nproc']}, {m['cpu']}, "
             f"{m['implementation']} {m['python']}"]
    for k, v in result["metrics"].items():
        lines.append(f"{k} {v['value']!r} {v['unit']}")
    failed_share = result["failed"] / result["attempted"]
    lines.append(f"failed_share {failed_share!r} ratio "
                 f"({result['failed']} of {result['attempted']} attempted)")
    lines += [f"# {n}" for n in result["notes"]]
    lines += [f"WRONG {w}" for w in result["wrong"][:20]]
    summary = {"correct": result["failed"] == 0, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": result["metrics"]}
    lines.append(json.dumps(summary))
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "acceptance"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_library()
        if args.workload == "acceptance":
            result = run_acceptance(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_eval(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    path = OUT / "results" / (f"{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, default=str))
    print(report(result))
    return 0
