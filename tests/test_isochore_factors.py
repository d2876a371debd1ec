"""The per-isochore factorisation of the closed forms against the assemblies it replaced.

The reference below is the previous code: every weighted or plain factor sums
its own theta series, so one efficiency sums each series two to nine times.
The factorised closed forms sum each series once and must give the same
bits, the same errors and the same messages.  Each partition function is the
plain factor exp(-lam gamma^2) T_0 at the exact (lam, gamma), or a printed
variant's own form.
"""

import math
import random
import warnings

import pytest

from anyon_otto import cli
from anyon_otto import closed_form as cf
from anyon_otto.errors import DegenerateCycle, DomainError
from anyon_otto.special_functions import (
    DUAL_CROSSOVER_LAMBDA,
    SLOW_DECAY_LAMBDA,
    SumAccuracy,
    _theta_reports,
    partial_theta,
    theta3,
)

VARIANTS = (cf.VARIANT_REDERIVED, cf.VARIANT_MAIN, cf.VARIANT_APPENDIX)
ACC = SumAccuracy()
_TINY = 1e-300


# ---------------------------------------------------------------------------
# reference: one router call per series per factor
# ---------------------------------------------------------------------------


def _series(lam, gamma, weight, one_sided, acc):
    if not lam > 0.0:
        raise DomainError(f"series decay rate must be positive, got {lam}")
    return _theta_reports(lam, gamma, one_sided, acc, (weight,))[0].value


def _plain_closed(lam, gamma, one_sided, acc):
    return math.exp(-lam * gamma * gamma) * _series(lam, gamma, 0, one_sided, acc)


def _weighted_closed(lam, gamma, c, one_sided, variant, acc):
    t0 = _series(lam, gamma, 0, one_sided, acc)
    t1 = _series(lam, gamma, 1, one_sided, acc)
    t2 = _series(lam, gamma, 2, one_sided, acc)
    pref = math.exp(-lam * gamma * gamma)
    if variant == cf.VARIANT_REDERIVED:
        return pref * (c * c * t0 - 2.0 * c * t1 + t2)
    if variant == cf.VARIANT_MAIN:
        d_gamma = 2.0 * lam * t1
        d_lam = 2.0 * gamma * t1 - t2
        return pref * (c * c * t0 + (c * gamma / lam) * d_gamma - d_lam)
    d_gamma_pref = pref * (2.0 * lam * t1 - 2.0 * lam * gamma * t0)
    d_lam_pref = pref * (-gamma * gamma * t0 + 2.0 * gamma * t1 - t2)
    return pref * c * c * t0 + pref * ((gamma - c) / lam) * d_gamma_pref - pref * d_lam_pref


def ref_ring_weighted(aw, ab, beta, eps0, acc, variant):
    cf._check_variant(variant)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not eps0 > 0.0:
        raise DomainError(f"eps0 must be positive, got {eps0}")
    return eps0 * _weighted_closed(beta * eps0, ab, aw, False, variant, acc)


def ref_ring_partition(alpha, beta, eps0, acc, variant):
    lam = beta * eps0
    if variant == cf.VARIANT_REDERIVED:
        return _plain_closed(lam, alpha, False, acc)
    return math.exp(-lam * alpha * alpha) * theta3(lam * alpha, math.exp(-lam), acc)


def ref_ring_efficiency(alpha_h, alpha_l, beta_h, beta_l, eps0, acc, variant):
    cf._check_variant(variant)
    if alpha_h == alpha_l:
        raise DegenerateCycle("alpha_h == alpha_l: numerator equals denominator")

    def u(aw, ab, beta):
        return ref_ring_weighted(aw, ab, beta, eps0, acc, variant)

    z_h = ref_ring_partition(alpha_h, beta_h, eps0, acc, variant)
    z_l = ref_ring_partition(alpha_l, beta_l, eps0, acc, variant)
    num = u(alpha_l, alpha_h, beta_h) / z_h - u(alpha_l, alpha_l, beta_l) / z_l
    den = u(alpha_h, alpha_h, beta_h) / z_h - u(alpha_h, alpha_l, beta_l) / z_l
    if abs(den) < _TINY * max(1.0, eps0):
        raise DegenerateCycle("closed-form denominator vanishes")
    return 1.0 - num / den


def ref_cs_weighted(aw, ab, beta, L, acc, variant):
    cf._check_variant(variant)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not L > 0.0:
        raise DomainError(f"L must be positive, got {L}")
    unit = math.pi**2 / (L * L)
    c4 = 4.0 * beta * unit
    if variant == cf.VARIANT_REDERIVED:
        even = _weighted_closed(c4, 0.0, 0.0, False, variant, acc) * _plain_closed(
            c4, ab / 2.0, True, acc
        ) + _plain_closed(c4, 0.0, False, acc) * _weighted_closed(
            c4, ab / 2.0, aw / 2.0, True, variant, acc
        )
        odd = _weighted_closed(c4, -0.5, -0.5, False, variant, acc) * _plain_closed(
            c4, (ab - 1.0) / 2.0, True, acc
        ) + _plain_closed(c4, -0.5, False, acc) * _weighted_closed(
            c4, (ab - 1.0) / 2.0, (aw - 1.0) / 2.0, True, variant, acc
        )
        return 4.0 * unit * (even + odd)
    chi1_even = _weighted_closed(-beta * unit, 0.0, 0.0, False, variant, acc)
    chi2_even = _weighted_closed(-c4, ab / 2.0, aw / 2.0, True, variant, acc)
    chi1_odd = _weighted_closed(-c4, -0.5, -0.5, False, variant, acc)
    chi2_odd = _weighted_closed(-c4, (ab + 1.0) / 2.0, (aw + 1.0) / 2.0, True, variant, acc)
    return 4.0 * unit * (4.0 * chi1_even * chi2_even) + unit * (4.0 * chi1_odd * chi2_odd)


def ref_cs_efficiency(alpha1, alpha2, beta_h, beta_l, L, acc, variant):
    cf._check_variant(variant)
    if alpha1 == alpha2:
        raise DegenerateCycle("alpha1 == alpha2: numerator equals denominator")

    def x(aw, ab, beta):
        return ref_cs_weighted(aw, ab, beta, L, acc, variant)

    def z(alpha, beta):
        c4 = 4.0 * beta * (math.pi**2 / (L * L))
        shift = alpha if variant == cf.VARIANT_REDERIVED else -alpha
        even = _plain_closed(c4, 0.0, False, acc) * _plain_closed(c4, shift / 2.0, True, acc)
        odd = _plain_closed(c4, -0.5, False, acc) * _plain_closed(c4, (shift - 1) / 2, True, acc)
        return even + odd

    z_h = z(alpha2, beta_h)
    z_l = z(alpha1, beta_l)
    num = x(alpha1, alpha2, beta_h) / z_h - x(alpha1, alpha1, beta_l) / z_l
    den = x(alpha2, alpha2, beta_h) / z_h - x(alpha2, alpha1, beta_l) / z_l
    if abs(den) < _TINY:
        raise DegenerateCycle("closed-form denominator vanishes")
    return 1.0 - num / den


# ---------------------------------------------------------------------------
# seeded fuzz
# ---------------------------------------------------------------------------


def outcome(f, *args):
    """The exact bits of f(*args), or its error type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return ("value", float(f(*args)).hex())
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc).__name__, str(exc))


def log_uniform(rng, lo, hi):
    return lo * (hi / lo) ** rng.random()


def alpha(rng, lo, hi):
    """A control value; one draw in four is +0.0 or -0.0."""
    if rng.random() < 0.25:
        return rng.choice((0.0, -0.0))
    return rng.uniform(lo, hi)


def ring_draws(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        eps0 = log_uniform(rng, 0.5, 2.0)
        beta_h = log_uniform(rng, 2e-3, 5.0)  # lam = beta eps0 spans 1e-3 .. 10
        beta_l = beta_h * log_uniform(rng, 1.0, 20.0)
        yield alpha(rng, -0.3, 0.6), alpha(rng, -0.3, 0.6), beta_h, beta_l, eps0


def pair_draws(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        L = log_uniform(rng, 0.5, 3.0)
        beta_h = log_uniform(rng, 1e-3, 1.0)  # lam = 4 beta pi^2/L^2 spans 4e-3 .. 160
        beta_l = beta_h * log_uniform(rng, 1.0, 20.0)
        yield alpha(rng, 0.0, 1.0), alpha(rng, 0.0, 1.0), beta_h, beta_l, L


RING = list(ring_draws(8, 150))
PAIR = list(pair_draws(9, 60))


class TestDrawsCoverTheRoutes:
    def test_lam_on_both_sides_of_the_dual_threshold(self):
        ring = [beta * eps0 for _, _, bh, bl, eps0 in RING for beta in (bh, bl)]
        pair = [4.0 * beta * math.pi**2 / L**2 for _, _, bh, bl, L in PAIR for beta in (bh, bl)]
        for lams in (ring, pair):
            assert min(lams) < SLOW_DECAY_LAMBDA < max(lams)
            assert min(lams) < DUAL_CROSSOVER_LAMBDA < max(lams)

    def test_signed_zero_controls(self):
        for draws in (RING, PAIR):
            controls = [a for draw in draws for a in draw[:2]]
            assert any(a == 0.0 and math.copysign(1.0, a) < 0 for a in controls)
            assert any(a == 0.0 and math.copysign(1.0, a) > 0 for a in controls)


class TestBitIdentity:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ring_efficiency(self, variant):
        values = 0
        for alpha_h, alpha_l, beta_h, beta_l, eps0 in RING:
            args = (alpha_h, alpha_l, beta_h, beta_l, eps0, ACC, variant)
            got = outcome(cf.ring_efficiency_value, *args)
            assert got == outcome(ref_ring_efficiency, *args), args
            values += got[0] == "value"
        # the printed ring partition functions need both controls positive
        assert values > len(RING) // (2 if variant == cf.VARIANT_REDERIVED else 6)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ring_weighted_energy_sum(self, variant):
        for alpha_h, alpha_l, beta_h, _, eps0 in RING:
            args = (alpha_l, beta_h, eps0, ACC, variant)
            got = outcome(lambda: cf._ring_isochore(*args)[1](alpha_h))
            want = outcome(ref_ring_weighted, alpha_h, alpha_l, beta_h, eps0, ACC, variant)
            assert got == want

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cs_efficiency(self, variant):
        values = 0
        for alpha1, alpha2, beta_h, beta_l, L in PAIR:
            args = (alpha1, alpha2, beta_h, beta_l, L, ACC, variant)
            got = outcome(cf.cs_efficiency_value, *args)
            assert got == outcome(ref_cs_efficiency, *args), args
            values += got[0] == "value"
        # the printed pair assembly has non-positive decay rates: it never evaluates
        assert values > len(PAIR) // 2 if variant == cf.VARIANT_REDERIVED else values == 0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cs_weighted_energy_sum(self, variant):
        for alpha1, alpha2, beta_h, _, L in PAIR:
            got = outcome(lambda: cf._cs_isochore(alpha2, beta_h, L, ACC, variant)[1](alpha1))
            assert got == outcome(ref_cs_weighted, alpha1, alpha2, beta_h, L, ACC, variant)


class TestEachSeriesOnce:
    """Each series is summed once, and theta3 and partial_theta count as one series each."""

    def count_series(self, monkeypatch, f, *args, two_sided_only=False):
        calls = []

        def counted(lam, gamma, one_sided, acc, weights=(0, 1, 2)):  # one series per weight
            if not (two_sided_only and one_sided):
                calls.extend((lam, gamma, weight, one_sided) for weight in weights)
            return _theta_reports(lam, gamma, one_sided, acc, weights)

        def counted_theta(name, theta):
            def call(x, q, acc):
                if not (two_sided_only and name == "partial_theta"):
                    calls.append((name, x, q))
                return theta(x, q, acc)

            return call

        monkeypatch.setattr(cf, "_theta_reports", counted)
        # closed_form no longer imports partial_theta; a call through either
        # name, should one come back, is counted all the same
        for name, theta in (("theta3", theta3), ("partial_theta", partial_theta)):
            monkeypatch.setattr(cf, name, counted_theta(name, theta), raising=False)
        f(*args)
        assert len(set(calls)) == len(calls)
        return len(calls)

    def test_ring_efficiency_sums_two_triples(self, monkeypatch):
        assert self.count_series(monkeypatch, cf.ring_efficiency_value, 0.1, 0.3, 0.5, 25.0) == 6

    def test_cs_efficiency_sums_eight_triples(self, monkeypatch):
        assert self.count_series(monkeypatch, cf.cs_efficiency_value, 0.2, 0.7, 0.05, 0.1) == 24

    def test_partition_closed_forms_sum_their_isochores_triples(self, monkeypatch):
        assert self.count_series(monkeypatch, cf.ring_partition_closed, 0.3, 0.5) == 3
        assert self.count_series(monkeypatch, cf.cs_partition_closed, 0.3, 0.05, 1.0) == 12

    def test_cs_coupling_sweep_sums_alpha_free_series_once_per_temperature(
        self, monkeypatch, tmp_path
    ):
        # The two-sided pair series do not depend on alpha: the full-lattice
        # triples at gamma 0 and -1/2, one pair of them per temperature.
        argv = "sweep --medium cs-coupling --alpha1 0 --sweep alpha2 --grid 0:1:21 --beta-h 0.1"
        argv = argv.split() + ["--beta-l", "1", "--out", str(tmp_path)]
        n_series = self.count_series(monkeypatch, cli.main, argv, two_sided_only=True)
        residuals = [row.split(",")[-2] for row in (tmp_path / "sweep.csv").read_text().split()]
        assert residuals[1] == "" and all(residuals[2:])  # no closed form where alpha2 == alpha1
        assert n_series == 2 * (3 * 2)
