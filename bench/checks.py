"""Output checks that do not use the oracle machinery under test.

Reports are parsed back into exact rationals and compared with the
references of workloads.py in plain Fraction arithmetic.  Every check
that fails is one wrong outcome; wrong outcomes over attempts is the
failed share.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from workloads import PRECISIONS, Expected, Vec

EXHAUSTED = "precision exhaustion"


@dataclass(frozen=True)
class Outcome:
    """What one task produced: its report, or the exception it raised
    (EXHAUSTED for PrecisionExhaustionError)."""
    report: Optional[str] = None
    error: Optional[str] = None


def _value_text(report: str, precision: int) -> str:
    lines = report.split("\n")
    if len(lines) != 3 or not lines[1].startswith("value = ") \
            or lines[2] != f"error <= 2^-{precision}":
        raise ValueError(f"malformed report: {report!r}")
    return lines[1][len("value = "):]


def parse_vector(text: str) -> Vec:
    if text == "0":
        return {}
    out: Vec = {}
    for tok in text.split():
        k, _, q = tok.partition(":")
        out[int(k)] = Fraction(q)
    return out


def _dist_sq(u: Vec, v: Vec) -> Fraction:
    return sum(((u.get(k, 0) - v.get(k, 0)) ** 2 for k in set(u) | set(v)),
               Fraction(0))


def value_error(expected: Expected, report: str, precision: int) -> Optional[str]:
    """None when the reported value is within 2^-precision of the
    reference (plus the reference's own slack), else the reason."""
    eps = Fraction(1, 1 << precision)
    try:
        text = _value_text(report, precision)
        if expected.kind == "vector":
            ok = _dist_sq(parse_vector(text), expected.ref) <= (eps + expected.slack) ** 2
        elif expected.kind == "scalar":
            ok = abs(Fraction(text) - expected.ref) <= eps + expected.slack
        else:
            # squared bracket: |q - sqrt(s)| <= eps iff
            # max(q - eps, 0)^2 <= s <= (q + eps)^2
            q = Fraction(text)
            ok = max(q - eps, Fraction(0)) ** 2 <= expected.ref <= (q + eps) ** 2
    except (ValueError, ZeroDivisionError) as exc:
        return f"unparseable report ({exc})"
    return None if ok else "value outside 2^-n of the exact reference"


def judge(expected: Expected, outcome: Outcome, precision: int) -> Optional[str]:
    """None for a correct outcome, else why it is wrong.  An expected
    certified failure is correct; for a task whose datum understates the
    truth a returned value must still match the reference, so a swallowed
    failure that returns a truncated value is caught."""
    if outcome.error == EXHAUSTED:
        return None if expected.may_exhaust else "unexpected precision exhaustion"
    if outcome.error is not None:
        return f"unexpected {outcome.error}"
    return value_error(expected, outcome.report, precision)


def cauchy_error(expected: Expected, low: Outcome, high: Outcome) -> Optional[str]:
    """The answers of one task at the two precisions must lie within
    2^-32 + 2^-64 of each other."""
    if low.report is None or high.report is None:
        return None
    lo, hi = PRECISIONS
    gap = Fraction(1, 1 << lo) + Fraction(1, 1 << hi)
    try:
        a, b = _value_text(low.report, lo), _value_text(high.report, hi)
    except ValueError as exc:
        return f"unparseable report ({exc})"
    if expected.kind == "vector":
        ok = _dist_sq(parse_vector(a), parse_vector(b)) <= gap * gap
    else:
        ok = abs(Fraction(a) - Fraction(b)) <= gap
    return None if ok else "precision-32 and precision-64 answers disagree"


def check_pass(expected: list[Expected], precisions: list[int],
               pairs: list[tuple[int, int]],
               outcomes: list[Outcome]) -> list[tuple[int, str]]:
    """(task index, reason) for every wrong outcome of one pass; a task
    counts once even when several checks fail."""
    wrong: dict[int, str] = {}
    for i, (exp, n, out) in enumerate(zip(expected, precisions, outcomes)):
        reason = judge(exp, out, n)
        if reason is not None:
            wrong[i] = reason
    for lo, hi in pairs:
        if lo not in wrong and hi not in wrong:
            reason = cauchy_error(expected[lo], outcomes[lo], outcomes[hi])
            if reason is not None:
                wrong[hi] = reason
    return sorted(wrong.items())


def digest(outcomes: list[Outcome]) -> str:
    """Digest of the report text of one pass, as `exactframes eval` would
    print it, with certified failures in place."""
    h = hashlib.sha256()
    for i, out in enumerate(outcomes):
        h.update((out.report if out.report is not None
                  else f"task {i}: {out.error}").encode())
        h.update(b"\n\n")
    return h.hexdigest()
