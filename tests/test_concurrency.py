"""Names are immutable values: concurrent evaluation from several
threads must agree with serial evaluation exactly."""

import sys
import threading
import time
from fractions import Fraction

from exactframes import (
    CReal,
    FrameName,
    GFrameName,
    SpeckerData,
    SumName,
    VectorName,
    basis_vector,
    creal_sqrt,
    creal_from_rational,
    diagonal_gframe,
    frame_operator,
    invert_frame_operator,
    riesz_functional,
    riesz_representer,
    vec_norm,
)

from exactframes.realcore import ONE, PrefixSums

from conftest import combo, identity_operator, vec

F = Fraction


def hammer(fn, workers=6):
    results = [None] * workers
    errors = []

    def worker(slot):
        try:
            results[slot] = fn()
        except Exception as exc:      # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    return results


def test_shared_creal_evaluates_consistently():
    x = creal_sqrt(creal_from_rational(2))
    got = hammer(lambda: tuple(x.approx(n) for n in (5, 18, 33)))
    assert len(set(got)) == 1


def test_shared_representer_evaluates_consistently(H):
    y = vec(H, {0: F(2, 3), 4: F(-1, 5), 9: F(7, 8)})
    rep = riesz_representer(riesz_functional(y, vec_norm(y)))
    got = hammer(lambda: rep.approx(30).terms)
    assert len(set(got)) == 1
    serial = rep.approx(30).terms
    assert got[0] == serial


def test_functional_eval_is_threadsafe(H):
    func = riesz_functional(basis_vector(H, 1), creal_from_rational(1))
    probe = vec(H, {1: F(5, 7)})
    got = hammer(lambda: func.eval(probe).approx(25))
    assert len(set(got)) == 1


def test_shared_inverse_keeps_one_iterate_per_precision(H):
    G, norms, ao = diagonal_gframe(H, {0: F(2), 1: F(1, 2)})
    inv = invert_frame_operator(frame_operator(G, norms, ao), G.lower, G.upper)
    f = vec(H, {0: F(1, 3), 1: F(-2, 5), 2: F(1, 7)})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = hammer(lambda: inv.apply(f).approx(20))
    finally:
        sys.setswitchinterval(interval)
    # a lost update would hand different threads different iterates
    assert all(x is got[0] for x in got)
    assert inv.apply(f).approx(20) is got[0]


def test_lazy_names_hand_every_thread_one_answer(H):
    def slow(make):
        def fn(n):
            time.sleep(0)       # let another thread in while it computes
            return make(n)      # a new object on every call
        return fn

    x = CReal(slow(lambda n: F(1, 3) + F(1, 1 << n)))
    v = VectorName(H, slow(lambda n: combo(H, {0: F(1, 3), 2: F(1, 1 << n)})))
    start = threading.Barrier(6, timeout=60)    # one party per worker

    def ask():
        start.wait()
        return x.approx(21), v.approx(21)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = hammer(ask)
    finally:
        sys.setswitchinterval(interval)
    # racing threads may each compute, but the first answer stored is the
    # one every caller gets
    for k, shared in enumerate(got[0]):
        assert all(run[k] is shared for run in got)
    assert x.approx(21) is got[0][0] and v.approx(21) is got[0][1]


def test_shared_prefix_sums_keep_terms_in_order():
    sums = PrefixSums()

    def term(i):
        time.sleep(0)       # let another thread in while the term is made
        # lazy, so each count's sum is a stored name rather than a value
        return CReal(lambda n, i=i: F(i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = hammer(lambda: [sums.upto(c, term) for c in range(1, 40)])
    finally:
        sys.setswitchinterval(interval)
    # a lost update would misplace a term or hand threads different sums
    for c, shared in enumerate(got[0], start=1):
        assert all(run[c - 1] is shared for run in got)
        assert shared.approx(10) == c * (c - 1) // 2


def test_per_key_tables_hand_every_thread_one_object(H):
    def slow(make):
        def build(*args):
            time.sleep(0)       # let another thread in while it builds
            return make(*args)
        return build

    G = GFrameName(H, slow(lambda i: identity_operator(H)), F(1), F(1))
    S = SumName(G.sum_space(), slow(lambda i: basis_vector(H, i)), ONE)
    frame = FrameName(H, slow(lambda i, j: basis_vector(H, i)), F(1), F(1))
    key = ("probe",)

    def lookups():
        return (G.op(3), G.derived(key, slow(object)), S.component(2),
                frame.vec(1, 0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = hammer(lookups)
    finally:
        sys.setswitchinterval(interval)
    # a lost update would hand different threads different objects
    for k, shared in enumerate(got[0]):
        assert all(run[k] is shared for run in got)


def test_specker_data_hands_every_thread_one_prefix():
    def enum(k):
        time.sleep(0)           # let another thread in between values
        return (3 * k + 1) % 64 if k < 64 else k + 64

    s = SpeckerData(enum)

    def read():
        return ([s.exponent(k) for k in range(80)],
                [s.sum_of_squares(c) for c in range(81)],
                [s.sum_of_terms(c) for c in range(81)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = hammer(read)
    finally:
        sys.setswitchinterval(interval)
    serial = SpeckerData(enum)
    expected = ([serial.exponent(k) for k in range(80)],
                [serial.sum_of_squares(c) for c in range(81)],
                [serial.sum_of_terms(c) for c in range(81)])
    assert all(run == expected for run in got)
