"""Gibbs ensembles, partition functions, and the heat/work split."""

import math
import threading

import mpmath
import numpy as np
import pytest

from anyon_otto.errors import DomainError, ShapeError
from anyon_otto.spectra import CSPairSpectrum, LevelSet, RingAnyonSpectrum
from anyon_otto.special_functions import gauss_sum_full
from anyon_otto.thermo import (
    PathStep,
    _shared,
    _sharing,
    adiabat_path,
    ensemble_from_levels,
    entropy,
    gibbs,
    gibbs_isochore_path,
    heat_work_split,
    linear_isochore_path,
    partition_function,
    sum_of_products,
)
from cycle_reference import gibbs_state, relative_distance

PI2 = math.pi**2


class TestGibbs:
    def test_cold_limit_pure_ground_state(self):
        ens = gibbs(RingAnyonSpectrum(1.0, 0.0), 1e3)
        assert ens.populations[0] > 1.0 - 1e-12
        assert ens.entropy < 1e-10
        assert ens.internal_energy < 1e-12

    def test_half_flux_twofold_degeneracy(self):
        ens = gibbs(RingAnyonSpectrum(1.0, 0.5), 1e3)
        assert abs(ens.populations[0] - 0.5) < 1e-12
        assert abs(ens.populations[1] - 0.5) < 1e-12
        assert abs(ens.entropy - math.log(2.0)) < 1e-12

    def test_partition_function_matches_lattice_oracle(self):
        ens = gibbs(RingAnyonSpectrum(1.0, 0.0), 1.0)
        z = math.exp(ens.logZ)
        oracle = gauss_sum_full(1.0, 0.0, 0.0, 0)
        assert math.isclose(z, oracle, rel_tol=1e-13)
        assert math.isclose(ens.populations[0], 1.0 / oracle, rel_tol=1e-13)

    def test_internal_energy_consistent_with_populations(self):
        ens = gibbs(CSPairSpectrum(1.0, 0.6), 0.08)
        recomputed = float(
            np.asarray(ens.populations) @ np.asarray(ens.levels.energies)
        )
        assert math.isclose(ens.internal_energy, recomputed, rel_tol=1e-12)

    def test_populations_normalized(self):
        for spec, beta in [
            (RingAnyonSpectrum(1.0, 0.3), 0.2),
            (CSPairSpectrum(2.0, 1.0), 0.05),
        ]:
            ens = gibbs(spec, beta)
            assert abs(sum(ens.populations) - 1.0) < 1e-12
            assert min(ens.populations) >= 0.0

    def test_beta_must_be_positive(self):
        with pytest.raises(DomainError):
            gibbs(RingAnyonSpectrum(1.0, 0.0), 0.0)


class TestLogPartition:
    """logZ of the retained levels against a 50-digit mpmath sum of the same float energies."""

    @pytest.mark.parametrize(
        "spec, beta",
        [
            (RingAnyonSpectrum(1.0, 0.0), 40.0),  # 8.4967e-18, once read as 0.0
            (RingAnyonSpectrum(1.0, 0.0), 10.0),  # once 3.6e-14 relative off
            (CSPairSpectrum(1.0, 0.0), 5.0),  # 2.741e-43, once read as 0.0
        ],
    )
    def test_log_z_matches_mpmath(self, spec, beta):
        ens = gibbs(spec, beta)
        with mpmath.workdps(50):
            energies = [mpmath.mpf(e) for e in ens.levels.energies.tolist()]
            e0 = min(energies)
            # log1p of the excited weights: 1 + 2.7e-43 keeps only 7 of its digits at 50
            excited = mpmath.fsum(mpmath.exp(-beta * (e - e0)) for e in energies if e != e0)
            degeneracy = energies.count(e0)
            exact = mpmath.log1p(degeneracy - 1 + excited) - beta * e0
            assert relative_distance(ens.logZ, exact) <= 1e-14


class TestPartitionFunction:
    def test_ring_direct_sum(self):
        z = partition_function(RingAnyonSpectrum(1.0, 0.0), 1.0)
        direct = sum(math.exp(-float(n * n)) for n in range(-30, 31))
        assert math.isclose(z, direct, rel_tol=1e-13)

    def test_cs_direct_sum(self):
        z = partition_function(CSPairSpectrum(1.0, 0.0), 1.0)
        direct = sum(
            math.exp(-2.0 * PI2 * (n1 * n1 + n2 * n2))
            for n1 in range(-4, 5)
            for n2 in range(n1, 5)
        )
        assert math.isclose(z, direct, rel_tol=1e-13)
        assert abs(z - 1.0) < 1e-8  # 1 + 5.4e-9 + ...

    @pytest.mark.parametrize(
        "spec", [RingAnyonSpectrum(1.0, 0.3), CSPairSpectrum(1.0, 0.5)]
    )
    def test_strictly_decreasing_in_beta(self, spec):
        z1 = partition_function(spec, 0.4)
        z2 = partition_function(spec, 0.8)
        assert z2 < z1

    def test_consistent_with_gibbs_logz(self):
        spec = CSPairSpectrum(1.5, 0.8)
        z = partition_function(spec, 0.1)
        ens = gibbs(spec, 0.1)
        assert math.isclose(z, math.exp(ens.logZ), rel_tol=1e-12)


class TestEntropyAndShiftInvariance:
    def _uniform_levels(self, d):
        return LevelSet(
            labels=tuple(range(d)),
            energies=tuple(1.5 for _ in range(d)),
            tail_bound=0.0,
            beta=1.0,
        )

    def test_uniform_entropy_is_log_d(self):
        for d in (2, 5, 17):
            ens = ensemble_from_levels(self._uniform_levels(d), 2.0)
            assert math.isclose(ens.entropy, math.log(d), rel_tol=1e-13)
            assert entropy(ens).hex() == ens.entropy.hex()
        pure = gibbs(RingAnyonSpectrum(1.0, 0.0), 1e6)
        assert entropy(pure).hex() == pure.entropy.hex()

    def test_low_temperature_entropy_keeps_ln_z(self):
        # Z' - 1 is 1.3e-14 here: -P_0 ln P_0 is as large as the excited terms
        ens = gibbs(RingAnyonSpectrum(1.0, 0.1), 40.0)
        with mpmath.workdps(50):
            energies = [mpmath.mpf(e) for e in ens.levels.energies.tolist()]
            exact = gibbs_state(energies, ens.beta)[2]
            assert abs(ens.entropy - exact) <= 1e-12 * exact

    def test_pure_state_entropy_zero(self):
        levels = LevelSet(labels=(0, 1), energies=(0.0, 50.0), tail_bound=0.0, beta=1.0)
        ens = ensemble_from_levels(levels, 10.0)
        assert ens.entropy < 1e-200

    def test_pure_state_entropy_is_positive_zero(self):
        # -(1 ln 1) is -0.0; the entropy of a pure state is +0.0
        assert gibbs(RingAnyonSpectrum(1.0, 0.0), 1e6).entropy.hex() == "0x0.0p+0"

    def test_energy_shift_invariance(self):
        base = gibbs(RingAnyonSpectrum(1.0, 0.2), 0.9).levels
        shift = 7.25
        shifted = LevelSet(
            labels=base.labels,
            energies=tuple(e + shift for e in base.energies),
            tail_bound=base.tail_bound,
            beta=base.beta,
        )
        a = ensemble_from_levels(base, 0.9)
        b = ensemble_from_levels(shifted, 0.9)
        # shifted inputs are rounded once on entry, so allow one ulp per level
        assert np.allclose(a.populations, b.populations, rtol=0.0, atol=1e-14)
        assert abs(a.entropy - b.entropy) < 1e-13
        assert math.isclose(b.internal_energy - a.internal_energy, shift, rel_tol=1e-12)
        assert math.isclose(b.logZ - a.logZ, -0.9 * shift, rel_tol=1e-12)

    def test_gibbs_maximizes_entropy_at_fixed_mean_energy(self):
        ens = gibbs(RingAnyonSpectrum(1.0, 0.15), 1.0)
        p = np.asarray(ens.populations)
        e = np.asarray(ens.levels.energies)
        e_centered = e - e @ p
        rng = np.random.default_rng(42)
        for _ in range(1000):
            v = rng.normal(size=p.size)
            v -= v.mean()
            v -= e_centered * (v @ e_centered) / (e_centered @ e_centered)
            neg = v < 0.0
            if not neg.any():
                continue
            s = 0.9 * float((p[neg] / -v[neg]).min())
            q = p + s * v
            q = np.clip(q, 0.0, None)
            nz = q > 0.0
            trial_entropy = float(-(q[nz] * np.log(q[nz])).sum())
            assert trial_entropy <= ens.entropy + 1e-12


class TestSumOfProducts:
    """sum_of_products rounds the sum of the rounded products as math.fsum does."""

    @pytest.mark.parametrize("n", [1, 7, 4095, 4096, 4097, 20000])
    def test_equals_fsum_of_the_products(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
            b = rng.random(n) - 0.3
            assert sum_of_products(a, b) == math.fsum((a * b).tolist())

    def test_cancellation_keeps_the_small_term(self):
        a = np.array([1e16, 1.0, -1e16])
        assert float(np.sum(a)) == 0.0
        assert sum_of_products(a, np.ones(3)) == 1.0

    def test_two_dimensional_inputs_sum_every_entry(self):
        rng = np.random.default_rng(5)
        a, b = rng.random((3, 5000)), rng.random((3, 5000)) - 0.5
        assert sum_of_products(a, b) == sum_of_products(a.ravel(), b.ravel())
        assert sum_of_products(a, b) == math.fsum((a * b).ravel().tolist())

    def test_edge_inputs_take_the_pairwise_sum(self):
        empty = np.array([])
        assert sum_of_products(empty, empty) == 0.0
        assert sum_of_products(np.zeros(3), np.ones(3)) == 0.0
        assert sum_of_products(np.array([1.0, np.inf]), np.ones(2)) == math.inf
        assert math.isnan(sum_of_products(np.array([1.0, np.nan]), np.ones(2)))
        # sigma would pass the double range: the plain pairwise sum, inf included
        huge = np.full(4, 1.5e308)
        assert sum_of_products(huge, np.array([1.0, -1.0, 0.5, 0.25])) == float(
            np.sum(huge * np.array([1.0, -1.0, 0.5, 0.25]))
        )
        with np.errstate(over="ignore"):
            assert sum_of_products(huge, np.ones(4)) == math.inf


def _loop_heat_work_split(path):
    """Step-by-step accumulation, as heat_work_split computed it before stacking."""
    q = 0.0
    w = 0.0
    for step in path:
        eb = np.asarray(step.energies_before, dtype=float)
        ea = np.asarray(step.energies_after, dtype=float)
        pb = np.asarray(step.populations_before, dtype=float)
        pa = np.asarray(step.populations_after, dtype=float)
        q += float((pa - pb) @ ((ea + eb) * 0.5))
        w += float(((pa + pb) * 0.5) @ (ea - eb))
    return q, w


class TestHeatWorkSplit:
    @pytest.mark.parametrize("n_steps", [0, 1, 5, 200])
    def test_stacked_sums_match_loop_reference(self, n_steps):
        # both levels and populations move on every step, so neither total is
        # zero; the summation order differs, so allow a few ulps per term
        rng = np.random.default_rng(n_steps)
        energies = rng.uniform(-2.0, 5.0, (n_steps, 2, 9))
        pops = rng.dirichlet(np.ones(9), (n_steps, 2))
        path = [
            PathStep(tuple(e[0]), tuple(e[1]), tuple(p[0]), tuple(p[1]))
            for e, p in zip(energies, pops)
        ]
        q, w = heat_work_split(path)
        q_ref, w_ref = _loop_heat_work_split(path)
        ulps = 2 * pops[:, 0].size * np.finfo(float).eps
        q_abs = np.abs((pops[:, 1] - pops[:, 0]) * (energies[:, 1] + energies[:, 0])).sum()
        w_abs = np.abs((pops[:, 1] + pops[:, 0]) * (energies[:, 1] - energies[:, 0])).sum()
        assert abs(q - q_ref) <= ulps * q_abs
        assert abs(w - w_ref) <= ulps * w_abs

    def test_isochore_work_is_exactly_zero(self):
        spec = RingAnyonSpectrum(1.0, 0.0)
        path = gibbs_isochore_path(spec, 2.0, 1.0, 64)
        q, w = heat_work_split(path)
        assert w == 0.0
        e_hot = gibbs(spec, 1.0).internal_energy
        e_cold = gibbs(spec, 2.0).internal_energy
        assert math.isclose(q, e_hot - e_cold, rel_tol=1e-10)

    def test_thousand_step_isochore_matches_energy_difference(self):
        spec = RingAnyonSpectrum(1.0, 0.0)
        path = gibbs_isochore_path(spec, 2.0, 1.0, 1000)
        q, _ = heat_work_split(path)
        target = gibbs(spec, 1.0).internal_energy - gibbs(spec, 2.0).internal_energy
        assert abs(q - target) <= 1e-8 * abs(target)

    def test_adiabat_heat_is_exactly_zero(self):
        pops = (0.5, 0.3, 0.2)
        grids = [(0.0, 1.0, 4.0), (0.0, 1.5, 5.0), (0.1, 2.0, 6.0)]
        path = adiabat_path(grids, pops)
        q, w = heat_work_split(path)
        assert q == 0.0
        expected_w = sum(
            p * (ef - e0) for p, ef, e0 in zip(pops, grids[-1], grids[0])
        )
        assert math.isclose(w, expected_w, rel_tol=1e-14)

    def test_first_law_on_composite_path(self):
        # isochore then adiabat; Q + W must equal the endpoint energy change
        rng = np.random.default_rng(7)
        energies0 = np.sort(rng.uniform(0.0, 3.0, 6))
        p0 = rng.dirichlet(np.ones(6))
        p1 = rng.dirichlet(np.ones(6))
        energies1 = energies0 + rng.uniform(-0.5, 0.5, 6)
        path = linear_isochore_path(energies0, p0, p1, 37)
        path += adiabat_path(
            [energies0 + t * (energies1 - energies0) for t in np.linspace(0, 1, 23)],
            p1,
        )
        q, w = heat_work_split(path)
        delta_e = float(p1 @ energies1) - float(p0 @ energies0)
        assert abs((q + w) - delta_e) <= 1e-10 * max(1.0, abs(delta_e))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            PathStep((0.0, 1.0), (0.0, 1.0, 2.0), (0.5, 0.5), (0.5, 0.5))
        good = PathStep((0.0, 1.0), (0.0, 1.0), (0.5, 0.5), (0.5, 0.5))
        longer = PathStep(
            (0.0, 1.0, 2.0), (0.0, 1.0, 2.0), (0.3, 0.3, 0.4), (0.3, 0.3, 0.4)
        )
        with pytest.raises(ShapeError):
            heat_work_split([good, longer])

    def test_telescoping_is_exact_for_linear_isochore(self):
        energies = (0.0, 0.7, 1.9)
        p0 = (0.6, 0.3, 0.1)
        p1 = (0.2, 0.5, 0.3)
        path = linear_isochore_path(energies, p0, p1, 113)
        q, w = heat_work_split(path)
        delta_e = sum(p * e for p, e in zip(p1, energies)) - sum(
            p * e for p, e in zip(p0, energies)
        )
        assert w == 0.0
        assert abs(q - delta_e) < 1e-14


def _counted(calls, name="f"):
    """A function that logs (name, x) per call and returns [x], a fresh object each time."""

    def f(x):
        calls.append((name, x))
        return [x]

    return f


class TestSharedScope:
    def test_keeps_every_result_per_function(self):
        calls = []
        f = _counted(calls)
        with _sharing():
            first = {x: _shared(f, x) for x in (1.0, 2.0, 3.0)}
            for x in (3.0, 1.0, 2.0, 1.0):
                assert _shared(f, x) is first[x]
        assert calls == [("f", 1.0), ("f", 2.0), ("f", 3.0)]

    def test_functions_do_not_evict_each_other(self):
        calls = []
        f, g = _counted(calls, "f"), _counted(calls, "g")
        with _sharing():
            for x in (1.0, 2.0):
                _shared(f, x)
                _shared(g, x)
            _shared(f, 1.0)
            _shared(g, 1.0)
        assert calls == [("f", 1.0), ("g", 1.0), ("f", 2.0), ("g", 2.0)]

    def test_a_computation_that_raised_is_not_kept(self):
        calls = []

        def fails_once(x):
            calls.append(x)
            if len(calls) == 1:
                raise DomainError("first call fails")
            return x

        with _sharing():
            with pytest.raises(DomainError):
                _shared(fails_once, 1.0)
            assert (_shared(fails_once, 1.0), _shared(fails_once, 1.0)) == (1.0, 1.0)
        assert calls == [1.0, 1.0]

    def test_signed_zeros_are_distinct_keys(self):
        def sign(x):
            return math.copysign(1.0, x)

        with _sharing():
            assert (_shared(sign, 0.0), _shared(sign, -0.0)) == (1.0, -1.0)

    def test_equal_arguments_match_whether_or_not_they_are_one_object(self):
        calls = []

        def f(x, y):
            calls.append((x, y))
            return x + y

        one = 1.0
        with _sharing():
            assert _shared(f, one, one) == _shared(f, one, float("1.0")) == 2.0
        assert len(calls) == 1

    def test_dataclass_arguments_match_by_their_fields(self):
        calls = []
        f = _counted(calls)
        with _sharing():
            first = _shared(f, RingAnyonSpectrum(1.0, 0.25))
            assert _shared(f, RingAnyonSpectrum(1.0, 0.25)) is first
            _shared(f, RingAnyonSpectrum(1.0, -0.25))
        assert len(calls) == 2

    def test_outside_a_scope_nothing_is_kept(self):
        calls = []
        f = _counted(calls)
        assert _shared(f, 1.0) == _shared(f, 1.0) == [1.0]
        assert len(calls) == 2

    def test_a_scope_keeps_nothing_after_it_exits(self):
        calls = []
        f = _counted(calls)
        with _sharing():
            _shared(f, 1.0)
        _shared(f, 1.0)
        with _sharing():
            _shared(f, 1.0)
            _shared(f, 1.0)
        assert len(calls) == 3

    def test_a_scope_keeps_nothing_after_its_body_raised(self):
        calls = []
        f = _counted(calls)
        with pytest.raises(DomainError):
            with _sharing():
                _shared(f, 1.0)
                raise DomainError("the body fails")
        _shared(f, 1.0)
        with _sharing():
            _shared(f, 1.0)
        assert len(calls) == 3

    def test_a_decorated_function_opens_a_fresh_scope_per_call(self):
        calls = []
        f = _counted(calls)

        @_sharing()
        def twice():
            return _shared(f, 1.0) is _shared(f, 1.0)

        assert twice() and twice()
        assert len(calls) == 2

    def test_another_thread_does_not_see_the_scope(self):
        calls = []
        f = _counted(calls)
        with _sharing():
            _shared(f, 1.0)
            worker = threading.Thread(target=lambda: _shared(f, 1.0))
            worker.start()
            worker.join()
            _shared(f, 1.0)
        assert len(calls) == 2
