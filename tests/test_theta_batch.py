"""The batch kernel ``_theta_batch`` against the scalar theta functions, point by point.

A derandomized hypothesis draw puts x log-uniform in e^(+-700) (or, for the
points validate's grids meet, in [0.1, 10]) and lam log-uniform in
[1e-4, 50], q = e^(-lam), on both lattices at rel_tol 0.9, 1e-3, 1e-12 and
1e-16 and at two term caps.  At each point the batch's report must equal
``theta3_report`` or ``partial_theta_report`` in the bits of its value and
tail bound and in ``terms_used``, or raise the same error type and message.
The draws must reach each of the kernel's routes and hand points back to
the scalar functions as well.
"""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anyon_otto import special_functions as sf
from anyon_otto.errors import AnyonOttoError
from anyon_otto.special_functions import (
    DUAL_CROSSOVER_LAMBDA,
    SumAccuracy,
    _theta_batch,
    partial_theta_report,
    theta3_report,
)

SCALAR = {False: theta3_report, True: partial_theta_report}


def outcome(call, *args):
    """(value bits, tail bound bits, terms used) of a report, or (error type, message)."""
    try:
        report = call(*args)
    except AnyonOttoError as exc:
        return type(exc), str(exc)
    return report.value.hex(), report.tail_bound.hex(), report.terms_used


def batch_outcomes(xs, qs, one_sided, acc):
    batch = _theta_batch(xs, qs, one_sided, acc)
    assert len(batch.values) == len(batch.tail_bounds) == len(batch.terms_used) == len(xs)
    return [outcome(batch.report, i) for i in range(len(xs))]


def scalar_outcomes(xs, qs, one_sided, acc):
    return [outcome(SCALAR[one_sided], x, q, acc) for x, q in zip(xs, qs)]


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


X = st.one_of(st.floats(-700.0, 700.0).map(math.exp), log_uniform(0.1, 10.0))
Q = log_uniform(1e-4, 50.0).map(lambda lam: math.exp(-lam))


def test_batch_matches_the_scalar_reports(monkeypatch):
    handed_back = set()
    for one_sided, scalar in SCALAR.items():

        def counted(x, q, acc, scalar=scalar, one_sided=one_sided):
            handed_back.add((one_sided, x, q))
            return scalar(x, q, acc)

        monkeypatch.setattr(sf, scalar.__name__, counted)
    routes = Counter()

    @settings(
        max_examples=300,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        points=st.lists(st.tuples(X, Q), max_size=40),
        rel_tol=st.sampled_from([0.9, 1e-3, 1e-12, 1e-16]),
        max_terms=st.sampled_from([8, 10**6]),
    )
    def check(points, rel_tol, max_terms):
        acc = SumAccuracy(rel_tol=rel_tol, max_terms=max_terms)
        xs = [x for x, _ in points]
        qs = [q for _, q in points]
        for one_sided in (False, True):
            handed_back.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # slow decay, handed back
                got = batch_outcomes(np.array(xs), np.array(qs), one_sided, acc)
                assert got == scalar_outcomes(xs, qs, one_sided, acc)
            for x, q in points:
                if (one_sided, x, q) in handed_back:
                    routes["handed back"] += 1
                elif one_sided:
                    routes["direct, one-sided"] += 1
                else:
                    dual = -math.log(q) < DUAL_CROSSOVER_LAMBDA
                    routes["dual" if dual else "direct, full lattice"] += 1

    check()
    print(dict(routes))
    assert len(routes) == 4
    assert min(routes.values()) >= 200, routes


@pytest.mark.parametrize("one_sided", [False, True])
def test_empty_and_one_point_inputs(one_sided):
    batch = _theta_batch([], [], one_sided)
    assert (batch.values.shape, batch.tail_bounds.shape, batch.terms_used.shape) == ((0,),) * 3
    assert batch.errors == {}
    acc = SumAccuracy()
    for point in ((1.0, 0.5), (3.7, 0.02), (0.25, 0.9)):
        assert batch_outcomes([point[0]], [point[1]], one_sided, acc) == scalar_outcomes(
            [point[0]], [point[1]], one_sided, acc
        )


@pytest.mark.parametrize("one_sided", [False, True])
def test_bad_arguments_raise_the_scalar_errors(one_sided):
    xs = [0.0, -1.0, math.inf, math.nan, 2.0, 2.0, 2.0, 2.0, math.nan]
    qs = [0.5, 0.5, 0.5, 0.5, 0.0, 1.0, math.nan, -0.5, 1.5]
    acc = SumAccuracy()
    got = batch_outcomes(xs, qs, one_sided, acc)
    assert got == scalar_outcomes(xs, qs, one_sided, acc)
    assert all(isinstance(kind, type) for kind, _ in got)


def test_slow_decay_point_warns_as_the_scalar_call():
    # one-sided, lam = 0.01 and sqrt(lam) gamma = -2: summed directly, with a warning
    x, q = math.exp(-0.4), math.exp(-0.01)
    records = []

    def batch_report(x, q):
        return _theta_batch([x], [q], True).report(0)

    for call in (batch_report, partial_theta_report):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = call(x, q)
        records.append(
            (report, [(w.category, str(w.message), w.filename, w.lineno) for w in caught])
        )
    assert records[0] == records[1]
    assert [category for category, *_ in records[0][1]] == [RuntimeWarning]


@pytest.mark.parametrize("one_sided", [False, True])
def test_seeded_wide_grid_matches_the_scalar_reports(one_sided):
    # Where x is tiny, a one-sided term's exponent lam (gamma^2 - (n - gamma)^2)
    # cancels, so one ulp of a square moves the value: this many points
    # reach such terms, and the hypothesis draws alone may not.
    rng = np.random.default_rng(2024)
    n = 20_000
    xs = np.exp(rng.uniform(-700.0, 700.0, n))
    qs = np.exp(-np.exp(rng.uniform(math.log(1e-4), math.log(50.0), n)))
    for rel_tol in (0.9, 1e-3, 1e-12, 1e-16):
        acc = SumAccuracy(rel_tol=rel_tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = batch_outcomes(xs, qs, one_sided, acc)
            assert got == scalar_outcomes(xs.tolist(), qs.tolist(), one_sided, acc)
