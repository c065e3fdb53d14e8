import os
import random
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from exactframes import (FiniteCombo, PrecisionExhaustionError, SpaceDescriptor,
                         VectorName)

# tests that run `python -m exactframes` in a fresh process import this checkout
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def H():
    return SpaceDescriptor()


def combo(space, terms):
    return FiniteCombo(space, {k: Fraction(v) for k, v in terms.items()})


def vec(space, terms):
    return VectorName.from_combo(combo(space, terms))


def random_combo(rng: random.Random, space, max_terms=8, den=16, indices=24):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randrange(indices)] = Fraction(rng.randint(-den, den),
                                                 rng.randint(1, den))
    return combo(space, terms)


def finishes(fn, timeout=5):
    """Run fn in a daemon thread; True when it returned within the timeout."""
    done = []
    worker = threading.Thread(target=lambda: done.append(fn()), daemon=True)
    worker.start()
    worker.join(timeout=timeout)
    return not worker.is_alive() and len(done) == 1


# exact coefficient prefixes with support in 0..40, and how their claimed
# square sum relates to the data: "exact" is the true sum, "met early"
# the sum below a drawn index (an understatement whenever mass lies past
# it), "understated" the true sum minus a drawn gap, "overstated" the
# true sum plus 2**-100.  A larger overstatement is not drawn: it never
# closes the certificate, and the search then runs to 2**(n + 16) terms.
exact_prefixes = st.dictionaries(st.integers(0, 40),
                                 st.fractions(-3, 3, max_denominator=8),
                                 max_size=6)
claims = st.one_of(
    st.just(("exact", None)),
    st.tuples(st.just("met early"), st.integers(0, 41)),
    st.tuples(st.just("understated"),
              st.sampled_from([Fraction(1, 1 << 100), Fraction(1, 1 << 30),
                               Fraction(1, 64), Fraction(1)])),
    st.just(("overstated", None)))


def claimed_total(values, claim):
    kind, arg = claim
    if kind == "met early":
        return sum((q * q for k, q in values.items() if k < arg), Fraction(0))
    true = sum((q * q for q in values.values()), Fraction(0))
    if kind == "understated":
        return true - arg
    if kind == "overstated":
        return true + Fraction(1, 1 << 100)
    return true


def _outcome(name, n):
    try:
        return name.approx(n)
    except PrecisionExhaustionError as e:
        return type(e), str(e)


def assert_same_outcomes(exact_path, certified_path):
    """Both raise the same error, or agree within 2**-n, at n = 0, 8, 32."""
    for n in (0, 8, 32):
        a, b = _outcome(exact_path, n), _outcome(certified_path, n)
        if isinstance(a, tuple) or isinstance(b, tuple):
            assert a == b
        else:
            assert a.sub(b).norm_squared() <= Fraction(1, 1 << (2 * n))
