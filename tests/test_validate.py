"""Validation families: names, order, grids, thresholds and error points."""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from anyon_otto import closed_form as cf
from anyon_otto import otto, spectra, thermo, validate
from anyon_otto.errors import AnyonOttoError, DomainError, NoConvergence
from anyon_otto.special_functions import (
    DEFAULT_ACCURACY,
    SumAccuracy,
    _batch_lam,
    _batch_log_x,
    partial_theta,
    partial_theta_report,
    theta3,
    theta3_report,
)
from anyon_otto.validate import run_validation

# (name, threshold at rel_tol 1e-12, n_points), in the order validate prints them
FAMILIES = [
    ("theta-symmetry", 2e-12, 1000),
    ("theta-split", 4e-12, 1000),
    ("theta-monotonic", 1e-12, 60),
    ("gauss-vs-theta", 1e-11, 30),
    ("ring-partition", 1e-10, 25),
    ("ring-energy-sum", 1e-10, 36),
    ("ring-efficiency", 1e-09, 36),
    ("cs-partition", 1e-10, 25),
    ("cs-energy-sum", 1e-10, 27),
    ("cs-efficiency", 1e-09, 12),
    ("cs-volume", 1e-10, 18),
]
# families that evaluate the selected formula variant; the rest check the oracle
CLOSED_FORM = {
    "ring-partition",
    "ring-energy-sum",
    "ring-efficiency",
    "cs-partition",
    "cs-energy-sum",
    "cs-efficiency",
}
PRINTED_ERRORS = {"ring-partition": 5, "cs-energy-sum": 27, "cs-efficiency": 12}
ERRORS = {
    cf.VARIANT_REDERIVED: {},
    "paper-main-text": PRINTED_ERRORS,
    "paper-appendix": PRINTED_ERRORS,
}


def _by_name(results):
    return {r.name: r for r in results}


@pytest.mark.parametrize("variant", cf.VARIANTS)
def test_families_are_pinned(variant):
    got = [
        (r.name, r.threshold, r.n_points, r.n_errors, r.formula_variant)
        for r in run_validation(variant=variant)
    ]
    expected = [
        (
            name,
            threshold,
            n_points,
            ERRORS[variant].get(name, 0),
            variant if name in CLOSED_FORM else cf.VARIANT_REDERIVED,
        )
        for name, threshold, n_points in FAMILIES
    ]
    assert got == expected


def test_closed_form_error_is_one_error_point(monkeypatch):
    real = cf.ring_partition_closed

    def stalls_at_one_point(alpha, lam, *args, **kwargs):
        if (lam, alpha) == (1.0, 0.5):
            raise NoConvergence("series stalled")
        return real(alpha, lam, *args, **kwargs)

    monkeypatch.setattr(cf, "ring_partition_closed", stalls_at_one_point)
    fam = _by_name(run_validation(random_points=10))["ring-partition"]
    assert (fam.n_points, fam.n_errors, fam.max_residual) == (25, 1, math.inf)
    assert fam.worst_point == "lam=1, alpha=0.5 (series stalled)"
    assert not fam.passed


def test_theta_family_records_an_error_point(monkeypatch):
    # gauss-vs-theta at gamma = 0 is the one call with x == 1 and q == exp(-5)
    real = validate.theta3

    def stalls_at_one_point(x, q, acc):
        if (x, q) == (1.0, math.exp(-5.0)):
            raise NoConvergence("series stalled")
        return real(x, q, acc)

    monkeypatch.setattr(validate, "theta3", stalls_at_one_point)
    results = _by_name(run_validation(random_points=10))
    assert [name for name, _, _ in FAMILIES] == list(results)
    fam = results["gauss-vs-theta"]
    assert (fam.n_points, fam.n_errors, fam.max_residual) == (30, 1, math.inf)
    assert fam.worst_point == "lam=5, gamma=0 (series stalled)"
    assert all(r.n_errors == 0 for r in results.values() if r is not fam)


def test_flat_theta_fails_monotonic_at_every_later_point(monkeypatch):
    monkeypatch.setattr(validate, "theta3", lambda x, q, acc: 1.0)
    fam = _by_name(run_validation(random_points=10))["theta-monotonic"]
    assert (fam.n_points, fam.n_errors, fam.max_residual) == (60, 59, math.inf)
    assert fam.worst_point == "q=0.95 (not strictly increasing)"


def _random_grid(seed, n):
    """The (x, q) points of the two random theta families, as numpy scalars."""
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
    qs = rng.uniform(0.01, 0.9, n)
    return list(zip(xs, qs))


def _recorded_batches(monkeypatch, change=None, logs=None):
    """Patch validate's ``_theta_batch_logs`` to log (one_sided, xs, qs) per call; returns the log.

    ``change(one_sided, xs, qs)`` may return other qs for the kernel to sum,
    at their own lam.  ``logs``, where given, collects each call's lam and
    log(x) arrays.
    """
    log = []
    real = validate._theta_batch_logs

    def recorded(xs, qs, lam, log_x, one_sided, acc):
        log.append((one_sided, tuple(xs.tolist()), tuple(qs.tolist())))
        if logs is not None:
            logs.append((lam, log_x))
        if change is not None:
            qs = change(one_sided, xs, qs)
            lam = _batch_lam(qs)
        return real(xs, qs, lam, log_x, one_sided, acc)

    monkeypatch.setattr(validate, "_theta_batch_logs", recorded)
    return log


def test_random_points_are_summed_once_per_argument(monkeypatch):
    grid = _random_grid(0, 10)
    xs = tuple(float(x) for x, _ in grid)
    inv_xs = tuple(1.0 / x for x in xs)
    qs = tuple(float(q) for _, q in grid)
    logs = []
    log = _recorded_batches(monkeypatch, logs=logs)
    scalar_points = Counter()
    real = validate.theta3

    def counted(x, q, acc):
        scalar_points[x, q] += 1
        return real(x, q, acc)

    monkeypatch.setattr(validate, "theta3", counted)
    results = _by_name(run_validation(random_points=10))
    # theta3 and partial theta, each at x and at 1/x: one batch of the 10 points each
    assert Counter(log) == Counter(
        (one_sided, arg, qs) for one_sided in (False, True) for arg in (xs, inv_xs)
    )
    # lam = -log(q) is taken once for all four batches, and log(x) once per argument,
    # with the bits of the kernel's own logs
    by_arg = {arg: log_x for (_, arg, _), (_, log_x) in zip(log, logs)}
    assert len({id(lam) for lam, _ in logs}) == 1
    assert len({id(log_x) for _, log_x in logs}) == 2
    assert logs[0][0].tobytes() == _batch_lam(np.array(qs)).tobytes()
    for arg in (xs, inv_xs):
        assert by_arg[arg].tobytes() == _batch_log_x(np.array(arg)).tobytes()
    # theta-monotonic and gauss-vs-theta keep their 90 scalar calls
    assert sum(scalar_points.values()) == 90
    assert not set(scalar_points) & set(zip(xs, qs))
    assert results["theta-symmetry"].n_errors == results["theta-split"].n_errors == 0


@pytest.mark.parametrize("one_sided", [False, True])
def test_random_error_point_keeps_the_scalar_message(monkeypatch, one_sided):
    # q = 1 at random point 3 of one series' batch at x: the kernel hands the
    # point to the scalar function, whose DomainError validate records
    grid = [(float(x), float(q)) for x, q in _random_grid(0, 10)]
    x, q = grid[3]

    def bad_q(batch_one_sided, xs, qs):
        if batch_one_sided == one_sided and xs[3] == x:  # the series' batch at x
            qs = qs.copy()
            qs[3] = 1.0
        return qs

    _recorded_batches(monkeypatch, bad_q)
    results = _by_name(run_validation(random_points=10))
    scalar = partial_theta_report if one_sided else theta3_report
    with pytest.raises(DomainError) as raised:
        scalar(x, 1.0, DEFAULT_ACCURACY)
    # theta3 at x feeds both random families, partial theta only the split
    failing = ("theta-split",) if one_sided else ("theta-symmetry", "theta-split")
    for name in failing:
        fam = results[name]
        assert (fam.n_points, fam.n_errors, fam.max_residual) == (10, 1, math.inf)
        assert fam.worst_point == f"x={x:.6g}, q={q:.6g} ({raised.value})"
    assert all(r.n_errors == 0 for name, r in results.items() if name not in failing)


def test_nan_from_the_kernel_fails_both_random_families(monkeypatch):
    grid = [(float(x), float(q)) for x, q in _random_grid(0, 10)]
    x, q = grid[3]
    real = validate._theta_batch_logs

    def nan_at_point_3(xs, qs, lam, log_x, one_sided, acc):
        batch = real(xs, qs, lam, log_x, one_sided, acc)
        if not one_sided and xs[3] == x:  # theta3 at x
            batch.values[3] = math.nan
        return batch

    monkeypatch.setattr(validate, "_theta_batch_logs", nan_at_point_3)
    results = _by_name(run_validation(random_points=10))
    for name in ("theta-symmetry", "theta-split"):
        fam = results[name]
        assert (fam.n_points, fam.n_errors, fam.max_residual) == (10, 1, math.inf)
        assert fam.worst_point == f"x={x:.6g}, q={q:.6g} (residual is NaN)"
        assert not fam.passed


def test_nan_theta3_fails_monotonic_at_its_point(monkeypatch):
    real = validate.theta3
    q_nan = np.linspace(0.02, 0.95, 60).tolist()[20]

    def nan_at_one_q(x, q, acc):
        return math.nan if q == q_nan else real(x, q, acc)

    monkeypatch.setattr(validate, "theta3", nan_at_one_q)
    fam = _by_name(run_validation(random_points=10))["theta-monotonic"]
    # the point after it compares with the point before it, and rises
    assert (fam.n_points, fam.n_errors, fam.max_residual) == (60, 1, math.inf)
    assert fam.worst_point == f"q={q_nan:.6g} (theta3 is NaN)"


def test_nan_residual_is_an_error_point(monkeypatch):
    # gauss-vs-theta at gamma = 0 is the one call with x == 1 and q == exp(-5)
    real = validate.theta3

    def nan_at_one_point(x, q, acc):
        return math.nan if (x, q) == (1.0, math.exp(-5.0)) else real(x, q, acc)

    monkeypatch.setattr(validate, "theta3", nan_at_one_point)
    results = _by_name(run_validation(random_points=10))
    fam = results["gauss-vs-theta"]
    assert (fam.n_points, fam.n_errors, fam.max_residual) == (30, 1, math.inf)
    assert fam.worst_point == "lam=5, gamma=0 (residual is NaN)"
    assert all(r.n_errors == 0 for r in results.values() if r is not fam)


@pytest.mark.parametrize("n", [0, 1])
def test_random_families_at_zero_and_one_point(n):
    results = _by_name(run_validation(random_points=n))
    acc = DEFAULT_ACCURACY
    for (x, q), name in product(_random_grid(0, n), ("theta-symmetry", "theta-split")):
        t = theta3(x, q, acc)
        if name == "theta-symmetry":
            expected = cf.relative_residual(theta3(1.0 / x, q, acc), t)
        else:
            halves = partial_theta(x, q, acc) + partial_theta(1.0 / x, q, acc) - 1.0
            expected = cf.relative_residual(halves, t)
        assert results[name].max_residual.hex() == expected.hex()
    for name in ("theta-symmetry", "theta-split"):
        fam = results[name]
        assert (fam.n_points, fam.n_errors, fam.passed) == (n, 0, True)
        if n == 0:
            assert (fam.max_residual, fam.worst_point) == (0.0, "")
    others = [n_points for _, _, n_points in FAMILIES[2:]]
    assert [r.n_points for r in results.values()][2:] == others


def _worst(rows):
    """(max residual, its label) over (residual, label) rows; the first wins a tie."""
    max_residual, worst_point = 0.0, ""
    for residual, label in rows:
        if residual > max_residual:
            max_residual, worst_point = residual, label
    return max_residual, worst_point


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_theta_families_match_a_direct_recomputation(seed):
    acc = SumAccuracy(rel_tol=DEFAULT_ACCURACY.rel_tol)
    symmetry, split = [], []
    for x, q in _random_grid(seed, 200):
        label = f"x={x:.6g}, q={q:.6g}"
        symmetry.append((cf.relative_residual(theta3(1.0 / x, q, acc), theta3(x, q, acc)), label))
        halves = partial_theta(x, q, acc) + partial_theta(1.0 / x, q, acc) - 1.0
        split.append((cf.relative_residual(halves, theta3(x, q, acc)), label))
    results = _by_name(run_validation(seed=seed, random_points=200))
    for name, rows in (("theta-symmetry", symmetry), ("theta-split", split)):
        max_residual, worst_point = _worst(rows)
        fam = results[name]
        assert fam.max_residual.hex() == max_residual.hex()
        assert fam.worst_point == worst_point
        assert max_residual > 0.0


# The factors, window searches and oracle enumerations that validate's scope
# shares, by the modules that call each through ``thermo._shared``, with the
# number of distinct argument lists one run gives each.
SHARED = {
    ((cf,), "_ring_isochore"): 76,
    ((cf,), "_cs_isochore"): 42,
    ((cf, thermo), "enumerate_levels"): 50,
    ((otto,), "window_bounds"): 78,
}


def _record_shared(monkeypatch):
    """Patch each SHARED function to log (name, args, raised) per call; returns the log."""
    log = []
    for modules, name in SHARED:
        real = getattr(modules[0], name)

        def recorded(*args, real=real, name=name):
            key = (name, repr(args))
            try:
                result = real(*args)
            except AnyonOttoError:
                log.append(key + (True,))
                raise
            log.append(key + (False,))
            return result

        for module in modules:
            monkeypatch.setattr(module, name, recorded)
    return log


def _fields(results):
    """Every FamilyResult field, the floats as their exact hex strings."""
    return [
        dict(vars(r), max_residual=r.max_residual.hex(), threshold=r.threshold.hex())
        for r in results
    ]


@pytest.mark.parametrize("variant", cf.VARIANTS)
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_memo_gives_the_bits_of_computing_afresh(monkeypatch, seed, variant):
    log = _record_shared(monkeypatch)
    shared = _fields(run_validation(seed=seed, variant=variant))
    shared_log = list(log)
    log.clear()
    # the undecorated run opens no scope, so it computes every point afresh
    assert _fields(run_validation.__wrapped__(seed=seed, variant=variant)) == shared
    # a computation that raised is not kept: the scope runs each one again
    raised = [c for c in log if c[2]]
    assert [c for c in shared_log if c[2]] == raised
    assert bool(raised) == (variant != cf.VARIANT_REDERIVED)
    assert len(shared_log) < len(log)


def test_each_factor_window_and_enumeration_runs_once(monkeypatch):
    log = _record_shared(monkeypatch)
    run_validation(random_points=10)
    calls = Counter(name for name, _, _ in log)
    assert len(set(log)) == len(log)
    assert calls == {name: n for (_, name), n in SHARED.items()}


def test_each_series_triple_is_summed_once(monkeypatch):
    # the pair's half-lattice triple at gamma 0 is the even sector's at alpha 0
    # and the odd sector's at alpha 1, and the ring's triple at alpha 0 meets the
    # pair's full-lattice one where their decay rates are equal: a run summed
    # 180 triples before every triple went through the scope
    calls = []

    def counted(*args, real=cf._theta_values):
        calls.append(repr(args))
        return real(*args)

    monkeypatch.setattr(cf, "_theta_values", counted)
    run_validation(seed=0)
    assert len(calls) == len(set(calls)) == 173


def test_partition_oracles_enumerate_through_the_scope(monkeypatch):
    # cs-partition's oracle and the pair energy sums meet the same level sets;
    # each is enumerated once per run, in label order, whichever family asks first
    calls = []

    def counted(spec, beta, tail_tol, order, real=spectra.enumerate_levels):
        calls.append(repr((spec, beta.hex(), tail_tol.hex(), order)))
        return real(spec, beta, tail_tol, order)

    for module in (cf, thermo):
        monkeypatch.setattr(module, "enumerate_levels", counted)
    run_validation(random_points=10)
    assert len(calls) == len(set(calls)) == 50
    assert all(call.endswith("'label')") for call in calls)


@pytest.mark.parametrize("variant", cf.VARIANTS)
def test_validate_sorts_no_level_set(monkeypatch, variant):
    def refused(*args):
        raise AssertionError("validate sorted a LevelSet")

    monkeypatch.setattr(spectra, "_sorted_level_set", refused)
    results = run_validation(random_points=10, variant=variant)
    assert [r.n_errors for r in results] == [
        ERRORS[variant].get(name, 0) for name, _, _ in FAMILIES
    ]


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-12, 3e-13, 1e-14])
def test_thresholds_scale_with_rel_tol_down_to_the_floor(rel_tol):
    got = [r.threshold.hex() for r in run_validation(rel_tol=rel_tol, random_points=10)]
    assert got == [(validate.THRESHOLD_FACTORS[name] * rel_tol).hex() for name, _, _ in FAMILIES]


@pytest.mark.parametrize("seed", [0, 3])
def test_rel_tol_below_the_floor_passes_at_the_floors_thresholds(seed):
    # the sums are rounding-limited below rel_tol 1e-14, so the thresholds
    # stay at the floor's and every family passes at the same points
    floor = _fields(run_validation(rel_tol=validate.THRESHOLD_REL_TOL_FLOOR, seed=seed))
    results = run_validation(rel_tol=1e-17, seed=seed)
    assert all(r.passed for r in results)
    assert [dict(f, max_residual=None) for f in _fields(results)] == [
        dict(f, max_residual=None) for f in floor
    ]
