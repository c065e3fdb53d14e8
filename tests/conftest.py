import os
import random
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from exactframes import FiniteCombo, SpaceDescriptor, VectorName

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
