"""Level families, enumeration completeness, and the Pauli energy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyon_otto import thermo
from anyon_otto.errors import DomainError, NoConvergence, OrderingError
from anyon_otto.spectra import (
    CSPairSpectrum,
    RingAnyonSpectrum,
    enumerate_levels,
    pair_length_in_range,
    pauli_energy,
    window_bounds,
)

PI2 = math.pi**2


class TestRingEnergy:
    def test_free_ground_state(self):
        assert RingAnyonSpectrum(1.0, 0.0).energy(0) == 0.0

    def test_half_flux_degenerate_pair(self):
        spec = RingAnyonSpectrum(1.0, 0.5)
        assert spec.energy(0) == 0.25
        assert spec.energy(1) == 0.25

    def test_hand_value(self):
        assert RingAnyonSpectrum(0.5, 0.25).energy(-1) == 0.78125

    def test_eps0_must_be_positive(self):
        with pytest.raises(DomainError):
            RingAnyonSpectrum(0.0, 0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        eps0=st.floats(min_value=0.1, max_value=3.0),
        alpha=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_spectral_set_periodicity(self, eps0, alpha):
        spec_a = RingAnyonSpectrum(eps0, alpha)
        spec_b = RingAnyonSpectrum(eps0, alpha + 1.0)
        n = np.arange(-8, 9)
        set_a = np.sort(spec_a.energies(n))
        set_b = np.sort(spec_b.energies(n + 1))
        assert np.allclose(set_a, set_b, rtol=0.0, atol=1e-14 * max(1.0, set_a.max()))

    @settings(max_examples=100, deadline=None)
    @given(
        eps0=st.floats(min_value=0.1, max_value=3.0),
        alpha=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_spectral_set_reflection(self, eps0, alpha):
        spec_a = RingAnyonSpectrum(eps0, alpha)
        spec_b = RingAnyonSpectrum(eps0, -alpha)
        n = np.arange(-8, 9)
        set_a = np.sort(spec_a.energies(n))
        set_b = np.sort(spec_b.energies(-n))
        assert np.allclose(set_a, set_b, rtol=0.0, atol=1e-14 * max(1.0, set_a.max()))


class TestCSEnergy:
    def test_free_boson_ground_state(self):
        assert CSPairSpectrum(1.0, 0.0).energy(0, 0) == 0.0

    def test_unit_coupling_ground_state(self):
        assert math.isclose(CSPairSpectrum(1.0, 1.0).energy(0, 0), PI2, rel_tol=1e-15)

    def test_hand_value(self):
        # pi^2/16 + pi^2/4
        value = CSPairSpectrum(2.0, 0.5).energy(0, 1)
        assert math.isclose(value, PI2 / 16.0 + PI2 / 4.0, rel_tol=1e-14)

    def test_ordering_enforced(self):
        with pytest.raises(OrderingError):
            CSPairSpectrum(1.0, 0.5).energy(1, 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            CSPairSpectrum(0.0, 0.5)
        with pytest.raises(DomainError):
            CSPairSpectrum(1.0, -0.1)

    @pytest.mark.parametrize("L", [1e-170, 1e-160, 1e-154, 1e170])
    def test_length_outside_double_range(self, L):
        # L^2 underflows to 0, pi^2/L^2 overflows, or L^2 itself overflows
        with pytest.raises(DomainError) as exc:
            CSPairSpectrum(L, 0.5)
        assert str(exc.value) == f"L must keep pi^2/L^2 a finite positive double, got {L}"

    @pytest.mark.parametrize("L", [0.0, -1.0])
    def test_non_positive_length_keeps_its_message(self, L):
        with pytest.raises(DomainError, match=f"^L must be positive, got {L}$"):
            CSPairSpectrum(L, 0.5)

    def test_length_range_edges(self):
        inside = [1e-153, 1.0, 1.3e154]
        outside = [1e-154, 2.3e-154, 1.35e154, 0.0, -1.0, math.nan, math.inf]
        assert all(pair_length_in_range(L) for L in inside)
        assert not any(pair_length_in_range(L) for L in outside)
        CSPairSpectrum(1e-153, 0.5)
        CSPairSpectrum(1.3e154, 0.5)

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.5])
    def test_boson_limit_exact(self, L):
        # alpha = 0 contributes exact zeros, so equality is bitwise
        spec = CSPairSpectrum(L, 0.0)
        unit = PI2 / L**2
        for n1 in range(-4, 5):
            for n2 in range(n1, 5):
                assert spec.energy(n1, n2) == 2.0 * unit * (n1 * n1 + n2 * n2)

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.5])
    def test_fermion_like_level_spacing(self, L):
        # independently coded alpha=1 form: 2 pi^2/L^2 [(n1+1/2)^2 + (n2-1/2)^2]
        spec = CSPairSpectrum(L, 1.0)
        for n1 in range(-4, 5):
            for n2 in range(n1, 5):
                independent = 2.0 * PI2 / L**2 * ((n1 + 0.5) ** 2 + (n2 - 0.5) ** 2)
                assert math.isclose(spec.energy(n1, n2), independent, rel_tol=1e-13)


class TestEnumerateLevels:
    def test_ring_window_and_tail(self):
        levels = enumerate_levels(RingAnyonSpectrum(1.0, 0.0), 10.0, 1e-15)
        assert {-2, -1, 0, 1, 2}.issubset(set(levels.labels))
        assert levels.tail_bound < 1e-15
        energies = np.asarray(levels.energies)
        assert np.all(np.diff(energies) >= 0.0)

    def test_ring_ground_state(self):
        levels = enumerate_levels(RingAnyonSpectrum(1.0, 0.3), 2.0, 1e-13)
        assert levels.labels[0] == 0
        assert math.isclose(levels.energies[0], 0.09, rel_tol=1e-15)

    def test_cs_ground_state_first(self):
        levels = enumerate_levels(CSPairSpectrum(1.0, 0.0), 5.0, 1e-13)
        assert tuple(levels.labels[0]) == (0, 0)
        assert levels.energies[0] == 0.0

    def test_labels_unique(self):
        levels = enumerate_levels(CSPairSpectrum(1.0, 0.7), 0.02, 1e-13)
        assert len(set(map(tuple, levels.labels.tolist()))) == len(levels.labels)

    @pytest.mark.parametrize(
        "spec,beta",
        [
            (RingAnyonSpectrum(1.0, 0.37), 0.3),
            (RingAnyonSpectrum(0.5, -1.2), 2.0),
            (CSPairSpectrum(1.0, 0.5), 0.05),
            (CSPairSpectrum(2.0, 1.0), 0.3),
        ],
    )
    def test_completeness_no_lower_omitted_level(self, spec, beta):
        levels = enumerate_levels(spec, beta, 1e-13)
        rows = levels.labels.tolist()
        included = set(map(tuple, rows)) if levels.labels.ndim == 2 else set(rows)
        e_max = max(levels.energies)
        if isinstance(spec, RingAnyonSpectrum):
            probe = [n for n in range(-100, 101) if n not in included]
            omitted = [spec.energy(n) for n in probe]
        else:
            omitted = [
                spec.energy(n1, n2)
                for n1 in range(-60, 61)
                for n2 in range(n1, 61)
                if (n1, n2) not in included
            ]
        assert min(omitted) >= e_max

    @pytest.mark.parametrize(
        "spec,beta",
        [
            (RingAnyonSpectrum(1.0, 0.25), 0.7),
            (CSPairSpectrum(1.5, 0.8), 0.1),
        ],
    )
    def test_tail_bound_certifies_partition_sum(self, spec, beta):
        levels = enumerate_levels(spec, beta, 1e-13)
        e0 = levels.energies[0]
        z_trunc = sum(math.exp(-beta * (e - e0)) for e in levels.energies)
        if isinstance(spec, RingAnyonSpectrum):
            z_big = sum(math.exp(-beta * (spec.energy(n) - e0)) for n in range(-200, 201))
        else:
            z_big = sum(
                math.exp(-beta * (spec.energy(n1, n2) - e0))
                for n1 in range(-80, 81)
                for n2 in range(n1, 81)
            )
        # z_big carries its own accumulation roundoff (~1e-16 per term), so
        # compare against the certificate plus that noise floor
        assert z_big - z_trunc <= levels.tail_bound + 5e-15 * z_big
        assert z_big - z_trunc >= -5e-15 * z_big

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_input_is_domain_error(self, bad):
        for make in (
            lambda: RingAnyonSpectrum(bad, 0.1),
            lambda: RingAnyonSpectrum(1.0, bad),
            lambda: CSPairSpectrum(bad, 0.5),
            lambda: CSPairSpectrum(1.0, bad),
            lambda: enumerate_levels(RingAnyonSpectrum(1.0, 0.1), bad, 1e-13),
            lambda: enumerate_levels(CSPairSpectrum(1.0, 0.5), 0.1, bad),
        ):
            with pytest.raises(DomainError, match="finite"):
                make()

    @pytest.mark.parametrize(
        "spec", [RingAnyonSpectrum(1.0, 0.1), CSPairSpectrum(1.0, 0.5)], ids=["ring", "pair"]
    )
    @pytest.mark.parametrize("tail_tol", [1.0, 2.0, 1e300])
    def test_tail_tol_at_or_above_one_is_domain_error(self, spec, tail_tol):
        # The ring's first window guess took math.sqrt of a negative number.
        with pytest.raises(DomainError, match=r"^tail_tol must lie in \(0, 1\), got "):
            enumerate_levels(spec, 0.5, tail_tol)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            enumerate_levels(RingAnyonSpectrum(1.0, 0.0), 0.0, 1e-12)
        with pytest.raises(DomainError):
            enumerate_levels(RingAnyonSpectrum(1.0, 0.0), 1.0, 0.0)
        with pytest.raises(DomainError):
            enumerate_levels("not a spectrum", 1.0, 1e-12)


class TestPauliEnergy:
    def test_single_particle_has_no_statistics_energy(self):
        assert pauli_energy(1, 3.7) == 0.0

    def test_two_particles(self):
        assert pauli_energy(2, 1.0) == 1.0

    def test_ten_particles(self):
        # fermionic filling sum omega(2k+1)/2 minus bosonic N omega/2
        assert pauli_energy(10, 2.0) == 90.0

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_filling_oracle(self, omega):
        for n in range(1, 101):
            fermi = sum(omega * (2 * k + 1) / 2.0 for k in range(n))
            bose = n * omega / 2.0
            assert pauli_energy(n, omega) == fermi - bose

    def test_validation(self):
        with pytest.raises(DomainError):
            pauli_energy(0, 1.0)
        with pytest.raises(DomainError):
            pauli_energy(2, 0.0)
        with pytest.raises(DomainError):
            pauli_energy(2.5, 1.0)


class TestWindowAndEnergyRange:
    """A window guess past its cap, or energies past the double range, are typed errors."""

    @pytest.mark.parametrize(
        "spec, beta, message",
        [
            # log(1/tail_tol)/lam overflows: an infinite guess
            (RingAnyonSpectrum(1.0, 0.1), 1e-310, "ring window exceeded 1000000 levels"),
            (CSPairSpectrum(1.0, 0.5), 1e-310, "pair window exceeded K=1500"),
            # pi^2/L^2 ~ 5e-308: beta * unit is subnormal and the guess infinite
            (CSPairSpectrum(1e154, 0.5), 0.05, "pair window exceeded K=1500"),
            # lam underflows to 0
            (RingAnyonSpectrum(1e-30, 0.1), 1e-300, "ring window exceeded 1000000 levels"),
            (CSPairSpectrum(1e150, 0.5), 1e-300, "pair window exceeded K=1500"),
            # alpha**2 overflows: alpha alone puts the window past the cap
            (CSPairSpectrum(1.0, 1e300), 0.05, "pair window exceeded K=1500"),
            # finite guess past the cap
            (RingAnyonSpectrum(1.0, 0.1), 1e-300, "ring window exceeded 1000000 levels"),
        ],
    )
    @pytest.mark.parametrize("search", [enumerate_levels, window_bounds])
    def test_window_past_cap_raises_no_convergence(self, spec, beta, message, search):
        with pytest.raises(NoConvergence, match=message):
            search(spec, beta, 1e-13)

    @pytest.mark.parametrize(
        "spec, beta",
        [
            (CSPairSpectrum(1e-153, 0.5), 0.05),
            (RingAnyonSpectrum(1e308, 0.1), 1e-300),
        ],
    )
    @pytest.mark.parametrize("search", [enumerate_levels, window_bounds])
    def test_infinite_energies_raise_domain_error(self, spec, beta, search):
        with np.errstate(over="ignore", invalid="ignore"):
            message = r"^level energies leave the double range \(largest inf\)$"
            with pytest.raises(DomainError, match=message):
                search(spec, beta, 1e-13)
            with pytest.raises(DomainError, match="leave the double range"):
                thermo.gibbs(spec, beta, 1e-13)

    def test_largest_finite_energies_pass(self):
        levels = enumerate_levels(CSPairSpectrum(1e-152, 0.5), 0.05, 1e-13)
        assert np.all(np.isfinite(levels.energies))


class TestRingWindowNeedsNoCut:
    """The ring keeps its whole window [p-K, p+K], p = round(alpha), uncut.

    Its farthest level lies K + |alpha - p| <= K + 1/2 from alpha and the
    nearest omitted one K + 1 - |alpha - p| >= K + 1/2, so the downward-closure
    cut the pair window needs would drop nothing here.  Each draw re-applies
    that cut to the returned levels.
    """

    @staticmethod
    def draws(n, seed):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            eps0, beta, tail_tol = 10.0 ** rng.uniform((-3, -7, -15), (3, 3, -1))
            kind = rng.integers(4)
            if kind == 0:
                alpha = rng.uniform(-3.0, 3.0)
            elif kind == 1:
                alpha = float(rng.integers(-5, 6))
            elif kind == 2:
                alpha = rng.integers(-5, 6) + 0.5
            else:
                alpha = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 15.0)
            yield float(eps0), float(alpha), float(beta), float(tail_tol)

    def test_seeded_draws_keep_the_whole_window(self):
        kept = 0
        for eps0, alpha, beta, tail_tol in self.draws(2000, seed=20261019):
            spec = RingAnyonSpectrum(eps0, alpha)
            try:
                levels = enumerate_levels(spec, beta, tail_tol)
            except NoConvergence:  # a window past the cap
                continue
            ns = np.sort(levels.labels)
            p, K = int(round(alpha)), (len(ns) - 1) // 2
            assert np.array_equal(ns, np.arange(p - K, p + K + 1))
            e_floor = eps0 * min((p + K + 1 - alpha) ** 2, (p - K - 1 - alpha) ** 2)
            assert (levels.energies <= e_floor).all()
            kept += 1
        assert kept >= 1990
