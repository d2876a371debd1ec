"""Theta and lattice-Gaussian kernels against brute-force partial sums."""

import math
import random
import sys
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyon_otto import special_functions as sf
from anyon_otto.errors import DomainError, NoConvergence
from anyon_otto.special_functions import (
    DEFAULT_ACCURACY,
    SumAccuracy,
    gauss_sum_full,
    gauss_sum_full_report,
    gauss_sum_half,
    gauss_sum_half_report,
    partial_theta,
    partial_theta_report,
    theta3,
    theta3_report,
)


def brute_theta3(x, q, n_max=60):
    return sum(q ** (n * n) * x**n for n in range(-n_max, n_max + 1))


def brute_partial_theta(x, q, n_max=60):
    return sum(q ** (n * n) * x**n for n in range(0, n_max + 1))


def brute_gauss(lam, gamma, c, weight, lo, hi):
    return sum(
        (n - c) ** weight * math.exp(-lam * (n - gamma) ** 2) for n in range(lo, hi + 1)
    )


class TestSumAccuracy:
    def test_defaults(self):
        acc = SumAccuracy()
        assert acc.rel_tol == 1e-12
        assert acc.max_terms == 10**6

    @pytest.mark.parametrize("rel_tol", [0.0, 1.0, -1e-3, 2.0])
    def test_bad_rel_tol(self, rel_tol):
        with pytest.raises(DomainError):
            SumAccuracy(rel_tol=rel_tol)

    def test_bad_max_terms(self):
        with pytest.raises(DomainError):
            SumAccuracy(max_terms=7)


class TestTheta3:
    def test_tiny_q_keeps_only_n0(self):
        assert abs(theta3(1.0, 1e-12) - 1.0) < 3e-12

    def test_direct_partial_sums(self):
        # 1 + 2*(0.1 + 1e-4 + 1e-9 + 1e-16)
        assert math.isclose(theta3(1.0, 0.1), brute_theta3(1.0, 0.1), rel_tol=1e-15)

    @pytest.mark.parametrize(
        "x,q", [(0.3, 0.5), (2.0, 0.2), (7.5, 0.85), (1.0, 0.05), (0.11, 0.9)]
    )
    def test_against_brute_force(self, x, q):
        assert math.isclose(theta3(x, q), brute_theta3(x, q, 120), rel_tol=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(
        x=st.floats(min_value=0.1, max_value=10.0),
        q=st.floats(min_value=0.01, max_value=0.9),
    )
    def test_inversion_symmetry(self, x, q):
        t = theta3(x, q)
        assert abs(theta3(1.0 / x, q) - t) <= 2.0 * DEFAULT_ACCURACY.rel_tol * t

    @settings(max_examples=150, deadline=None)
    @given(
        x=st.floats(min_value=0.1, max_value=10.0),
        q=st.floats(min_value=0.01, max_value=0.9),
    )
    def test_split_into_partial_thetas(self, x, q):
        t = theta3(x, q)
        split = partial_theta(x, q) + partial_theta(1.0 / x, q) - 1.0
        assert abs(split - t) <= 4.0 * DEFAULT_ACCURACY.rel_tol * t

    def test_strictly_increasing_in_q(self):
        values = [theta3(1.0, q / 100.0) for q in range(1, 95, 3)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_large_argument_regime(self):
        # x = e^(2*lam*gamma) with lam = 20, gamma = 5: huge but representable
        lam, gamma = 20.0, 5.0
        value = theta3(math.exp(2 * lam * gamma), math.exp(-lam))
        direct = gauss_sum_full(lam, gamma, 0.0, 0)
        assert math.isclose(value * math.exp(-lam * gamma * gamma), direct, rel_tol=1e-12)

    @pytest.mark.parametrize("x,q", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0), (1.0, 1.5)])
    def test_domain_errors(self, x, q):
        with pytest.raises(DomainError):
            theta3(x, q)


class TestPartialTheta:
    def test_tiny_q_keeps_only_n0(self):
        assert abs(partial_theta(1.0, 1e-12) - 1.0) < 2e-12

    def test_direct_partial_sums(self):
        assert math.isclose(
            partial_theta(0.5, 0.1), brute_partial_theta(0.5, 0.1), rel_tol=1e-15
        )

    @pytest.mark.parametrize("x,q", [(0.5, 0.1), (3.0, 0.4), (0.2, 0.88)])
    def test_against_brute_force(self, x, q):
        assert math.isclose(
            partial_theta(x, q), brute_partial_theta(x, q, 120), rel_tol=1e-13
        )


class TestGaussSums:
    def test_odd_summand_cancels_exactly(self):
        for lam in (0.3, 1.0, 4.2):
            assert gauss_sum_full(lam, 0.0, 0.0, 1) == 0.0

    def test_weight0_direct(self):
        # 1 + 2e^-1 + 2e^-4 + 2e^-9 + ...
        direct = brute_gauss(1.0, 0.0, 0.0, 0, -30, 30)
        assert math.isclose(gauss_sum_full(1.0, 0.0, 0.0, 0), direct, rel_tol=1e-14)
        assert abs(direct - 1.7726372048) < 1e-9

    def test_half_weight2_direct(self):
        direct = brute_gauss(1.0, 0.0, 0.0, 2, 0, 30)
        assert math.isclose(gauss_sum_half(1.0, 0.0, 0.0, 2), direct, rel_tol=1e-14)

    @pytest.mark.parametrize("lam", [0.05, 0.3, 2.0, 20.0])
    @pytest.mark.parametrize("gamma", [-5.0, -0.7, 0.0, 1.3, 5.0])
    def test_weight0_equals_theta3_form(self, lam, gamma):
        direct = gauss_sum_full(lam, gamma, 0.0, 0)
        closed = math.exp(-lam * gamma * gamma) * theta3(
            math.exp(2.0 * lam * gamma), math.exp(-lam)
        )
        assert math.isclose(closed, direct, rel_tol=10 * DEFAULT_ACCURACY.rel_tol)

    @pytest.mark.parametrize("gamma,c", [(0.0, 0.0), (0.6, -0.3), (-1.2, 0.8)])
    def test_half_weight0_equals_partial_theta_form(self, gamma, c):
        lam = 0.9
        direct = gauss_sum_half(lam, gamma, c, 0)
        closed = math.exp(-lam * gamma * gamma) * partial_theta(
            math.exp(2.0 * lam * gamma), math.exp(-lam)
        )
        assert math.isclose(closed, direct, rel_tol=1e-12)

    @pytest.mark.parametrize("weight", [0, 1, 2])
    @pytest.mark.parametrize("gamma,c", [(0.4, 0.1), (-0.8, 0.5), (1.7, -1.1)])
    def test_full_splits_into_halves(self, weight, gamma, c):
        # split Z at n = 0; reflecting n -> -n flips the sign of odd weights
        lam = 1.3
        full = gauss_sum_full(lam, gamma, c, weight)
        halves = (
            gauss_sum_half(lam, gamma, c, weight)
            + (-1.0) ** weight * gauss_sum_half(lam, -gamma, -c, weight)
            - (-c) ** weight * math.exp(-lam * gamma * gamma)
        )
        scale = max(abs(full), 1.0)
        assert abs(full - halves) <= 1e-12 * scale

    @pytest.mark.parametrize("weight", [0, 1, 2])
    def test_against_brute_force(self, weight):
        lam, gamma, c = 0.6, 1.4, -0.3
        direct = brute_gauss(lam, gamma, c, weight, -80, 80)
        assert math.isclose(
            gauss_sum_full(lam, gamma, c, weight), direct, rel_tol=1e-13
        )
        direct_half = brute_gauss(lam, gamma, c, weight, 0, 120)
        assert math.isclose(
            gauss_sum_half(lam, gamma, c, weight), direct_half, rel_tol=1e-13
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gauss_sum_full(0.0, 0.0, 0.0, 0)
        with pytest.raises(DomainError):
            gauss_sum_full(-1.0, 0.0, 0.0, 0)
        with pytest.raises(DomainError):
            gauss_sum_full(1.0, 0.0, 0.0, 3)
        with pytest.raises(DomainError):
            gauss_sum_half(1.0, 0.0, 0.0, -1)

    def test_no_convergence_when_capped(self):
        acc = SumAccuracy(rel_tol=1e-12, max_terms=8)
        with pytest.warns(RuntimeWarning), pytest.raises(NoConvergence):
            gauss_sum_full(0.001, 0.0, 0.0, 0, acc)

    def test_slow_decay_warns_but_converges(self):
        with pytest.warns(RuntimeWarning):
            value = gauss_sum_full(0.01, 0.0, 0.0, 0)
        assert math.isclose(value, math.sqrt(math.pi / 0.01), rel_tol=1e-4)


class TestSumOverflow:
    # Peak term exp(lam gamma^2) = exp(708.5) ~ 5e307 is a finite double, but
    # the ~7 terms within one width of the peak sum past the double range.
    LAM = 0.06
    GAMMA = math.sqrt(708.5 / LAM)

    def test_every_term_is_finite(self):
        peak = round(self.GAMMA)
        log_pref = self.LAM * self.GAMMA**2
        assert -self.LAM * (peak - self.GAMMA) ** 2 + log_pref < 709.0

    @pytest.mark.parametrize("series", [theta3, partial_theta, theta3_report])
    def test_sum_past_double_range_is_no_convergence(self, series):
        x, q = math.exp(2.0 * self.LAM * self.GAMMA), math.exp(-self.LAM)
        with pytest.raises(NoConvergence, match="double-precision range"):
            series(x, q)


class TestRelTolBelowTheLeastNormal:
    """rel_tol times the least normal double underflows to 0 below rel_tol ~2.2e-16."""

    def test_underflowing_threshold_certifies(self):
        # weight 1 at gamma = c = 0: the peak term is 0, and every other one
        # underflows at lam = 1000, so the running total of absolute terms is 0
        rep = gauss_sum_full_report(1000.0, 0.0, 0.0, 1, SumAccuracy(rel_tol=1e-17))
        assert rep.value == 0.0
        assert rep.tail_bound == 5e-324 and rep.terms_used == 3

    @pytest.mark.parametrize("rel_tol", [1e-17, 1e-200])
    def test_threshold_floor_leaves_a_positive_one_alone(self, rel_tol):
        # where rel_tol * total_abs stays positive, the floor changes no bit
        acc = SumAccuracy(rel_tol=rel_tol)
        rep = gauss_sum_full_report(0.7, 0.3, 0.0, 2, acc)
        ref = _reference_lattice_sum(0.7, 0.3, 0.0, 2, False, acc)
        assert rep == ref


# One point on each route of the router: (lam, gamma, one_sided).
_ROUTES = {
    "direct-full": (4.0, 0.3, False),
    "direct-one-sided": (0.05, 1.7, True),
    "dual": (0.2, -1.3, False),
    "euler-maclaurin": (1e-3, 2.5, True),
}


def _route_triple(route, lam, gamma, one_sided, acc):
    """The triple as the route's own engine sums it."""
    if route == "dual":
        return sf._poisson_dual(lam, gamma, (0, 1, 2), acc)
    if route == "euler-maclaurin":
        return sf._euler_maclaurin(lam, gamma, acc)
    log_pref = lam * gamma * gamma
    return tuple(sf._lattice_sum(lam, gamma, 0.0, w, one_sided, acc, log_pref) for w in (0, 1, 2))


@pytest.mark.parametrize("route", sorted(_ROUTES))
@pytest.mark.parametrize("weight", [0, 1, 2])
def test_router_sums_each_weight_as_in_the_triple(route, weight):
    lam, gamma, one_sided = _ROUTES[route]
    acc = DEFAULT_ACCURACY
    triple = sf._theta_reports(lam, gamma, one_sided, acc)
    assert triple == _route_triple(route, lam, gamma, one_sided, acc)
    assert sf._theta_reports(lam, gamma, one_sided, acc, (weight,))[0] == triple[weight]


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


class TestPeakExponentIsTheGreatest:
    """``_lattice_sum`` tests only its peak term's exponent for overflow.

    That is sound if no summed index has a greater exponent, computed as the
    engine computes it, in floating point.
    """

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        lam=_log_uniform(1e-6, 1e6),
        gamma=st.one_of(
            st.floats(min_value=-1e6, max_value=1e6),
            st.integers(min_value=-2 * 10**6, max_value=2 * 10**6).map(lambda k: k / 2.0),
        ),
        one_sided=st.booleans(),
        with_pref=st.booleans(),
        far=st.integers(min_value=3, max_value=10**7),
    )
    def test_no_summed_index_exceeds_the_peak(self, lam, gamma, one_sided, with_pref, far):
        log_pref = lam * gamma * gamma if with_pref else 0.0

        def expo(n):  # as _lattice_sum writes it
            return -lam * (n - gamma) ** 2 + log_pref

        # the peak as _lattice_sum picks it
        peak = int(round(gamma))
        if one_sided and peak < 0:
            peak = 0
        offsets = (1, 2, far)
        indices = [peak + k for k in offsets] + [peak - k for k in offsets]
        for n in indices:
            if n >= 0 or not one_sided:
                assert expo(n) <= expo(peak), (n, peak)
    @pytest.mark.parametrize("lam", [0.05, 0.5, 3.0, 20.0])
    @pytest.mark.parametrize("gamma", [-2.3, 0.0, 1.1])
    @pytest.mark.parametrize("weight", [0, 2])
    def test_full_tail_below_rel_tol(self, lam, gamma, weight):
        rep = gauss_sum_full_report(lam, gamma, 0.4, weight)
        assert rep.tail_bound <= DEFAULT_ACCURACY.rel_tol * abs(rep.value)
        assert rep.terms_used >= 1

    @pytest.mark.parametrize("lam", [0.2, 2.0])
    @pytest.mark.parametrize("gamma", [-1.0, 0.3, 2.6])
    def test_half_tail_below_rel_tol(self, lam, gamma):
        rep = gauss_sum_half_report(lam, gamma, -0.2, 2)
        assert rep.tail_bound <= DEFAULT_ACCURACY.rel_tol * abs(rep.value)

    def test_theta_reports(self):
        for x, q in [(0.5, 0.3), (4.0, 0.8), (1.0, 0.05)]:
            rep = theta3_report(x, q)
            assert rep.tail_bound <= DEFAULT_ACCURACY.rel_tol * rep.value
            rep = partial_theta_report(x, q)
            assert rep.tail_bound <= DEFAULT_ACCURACY.rel_tol * rep.value

    def test_tail_bound_is_sound(self):
        # compare the certificate against the actual discarded mass
        lam, gamma = 0.4, 0.9
        rep = gauss_sum_full_report(lam, gamma, 0.0, 0)
        exact = brute_gauss(lam, gamma, 0.0, 0, -200, 200)
        assert abs(exact - rep.value) <= rep.tail_bound * 1.0000001


# The ring loop of special_functions._lattice_sum as it stood before the loop
# was tightened: a ring list, a term closure, min/max bookkeeping and a k == 0
# test per ring.  Kept verbatim as the reference the tight loop must reproduce
# bit for bit.
def _reference_lattice_sum(lam, gamma, c, weight, one_sided, acc, log_pref=0.0):
    max_terms = acc.max_terms
    if lam < sf.SLOW_DECAY_LAMBDA * (1.0 - 1e-9):
        warnings.warn(
            f"slow Gaussian decay (lambda={lam:g} < {sf.SLOW_DECAY_LAMBDA}); "
            "raising the term cap",
            RuntimeWarning,
            stacklevel=3,
        )
        max_terms *= 16

    peak = int(round(gamma))
    if one_sided and peak < 0:
        peak = 0
    inv_sqrt_lam = 1.0 / math.sqrt(lam)
    b = abs(gamma - c)

    total = 0.0
    total_abs = 0.0
    terms_used = 0
    n_lo = peak
    n_hi = peak

    def term(n):
        expo = -lam * (n - gamma) ** 2 + log_pref
        if expo > 709.0:
            raise NoConvergence(
                f"term at n={n} exceeds the double-precision range "
                f"(exponent {expo:.1f})"
            )
        mag = math.exp(expo)
        if weight == 0:
            return mag
        if weight == 1:
            return (n - c) * mag
        return (n - c) ** 2 * mag

    k = 0
    while True:
        if k == 0:
            ring = [peak]
        else:
            ring = [peak + k]
            lo_candidate = peak - k
            if lo_candidate >= 0 or not one_sided:
                ring.append(lo_candidate)
        ring_abs = 0.0
        for n in ring:
            t = term(n)
            total += t
            ring_abs += abs(t)
            n_lo = min(n_lo, n)
            n_hi = max(n_hi, n)
        total_abs += ring_abs
        terms_used += len(ring)
        if terms_used > max_terms:
            raise NoConvergence(
                f"lattice sum needed more than {max_terms} terms "
                f"(lambda={lam:g}, gamma={gamma:g}, weight={weight})"
            )

        if k >= 1 and ring_abs <= acc.rel_tol * max(total_abs, sf._TINY):
            if not math.isfinite(total_abs):
                raise NoConvergence(
                    f"lattice sum exceeds the double-precision range "
                    f"(lambda={lam:g}, gamma={gamma:g}, weight={weight})"
                )
            u_hi = n_hi - gamma
            u_lo = gamma - n_lo
            left_open = not (one_sided and n_lo == 0)
            if u_hi >= inv_sqrt_lam and (not left_open or u_lo >= inv_sqrt_lam):
                log_tail = log_pref + sf._log_gauss_tail(lam, u_hi, b, weight)
                if left_open:
                    log_tail = sf._logaddexp(
                        log_tail, log_pref + sf._log_gauss_tail(lam, u_lo, b, weight)
                    )
                threshold = acc.rel_tol * max(total_abs, sf._TINY)
                if log_tail <= math.log(threshold):
                    return sf.SumReport(
                        value=total,
                        tail_bound=sf._exp_round_up(log_tail),
                        terms_used=terms_used,
                    )
        k += 1


def _outcome(engine, args, acc, log_pref):
    """(result or exception, slow-decay warning count) of one engine call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rep = engine(*args, acc, log_pref=log_pref)
            result = ("report", repr(rep.value), repr(rep.tail_bound), rep.terms_used)
        except NoConvergence as exc:
            result = ("NoConvergence", str(exc))
    slow = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return result, len(slow)


class TestEngineMatchesReference:
    """The tight ring loop gives the reference's bits, errors and warnings."""

    DRAWS = 6000

    def _draws(self):
        rng = random.Random(6)
        accs = [
            SumAccuracy(rel_tol=rel_tol, max_terms=max_terms)
            for rel_tol in (1e-12, 1e-8, 1e-3, 0.5)
            for max_terms in (10**6, 8, 20)
        ]
        for _ in range(self.DRAWS):
            if rng.random() < 0.2:
                # log_pref within a few units of the double range: the
                # term-overflow and sum-overflow paths.
                lam = math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
                gamma = rng.choice((-1.0, 1.0)) * math.sqrt(rng.uniform(700.0, 712.0) / lam)
            else:
                # lam up to 1e4 underflows whole sums to signed zeros.
                lam = math.exp(rng.uniform(math.log(0.01), math.log(1e4)))
                gamma = rng.uniform(-20.0, 20.0)
            c = rng.uniform(-20.0, 20.0)
            weight = rng.choice((0, 1, 2))
            one_sided = rng.random() < 0.5
            log_pref = rng.choice((0.0, lam * gamma * gamma))
            yield (lam, gamma, c, weight, one_sided), rng.choice(accs), log_pref

    def test_fuzz_bit_identical(self):
        seen = Counter()
        for args, acc, log_pref in self._draws():
            expected = _outcome(_reference_lattice_sum, args, acc, log_pref)
            assert _outcome(sf._lattice_sum, args, acc, log_pref) == expected, (args, acc, log_pref)
            result, slow = expected
            if result[0] == "report":
                seen["zero" if result[1] == "0.0" else "report"] += 1
            else:
                seen[result[1].split(" (")[0].split(" at n=")[0]] += 1
            seen["slow decay"] += slow
        # Every path the comparison is meant to cover was taken.
        assert seen["report"] > 3000
        assert seen["zero"] > 100
        assert seen["term"] > 100
        assert seen["lattice sum exceeds the double-precision range"] > 50
        assert seen["slow decay"] > 500
        assert sum(n for key, n in seen.items() if key.startswith("lattice sum needed")) > 100

    def test_lone_negative_zero_peak_sums_to_positive_zero(self):
        # Every term underflows and (n - c) < 0 at the peak: t(peak) = -0.0.
        args = (1e4, 0.4, 5.0, 1, False)
        assert repr(sf._lattice_sum(*args, DEFAULT_ACCURACY).value) == "0.0"
        assert _outcome(sf._lattice_sum, args, DEFAULT_ACCURACY, 0.0) == _outcome(
            _reference_lattice_sum, args, DEFAULT_ACCURACY, 0.0
        )


def _mp_series(lam, gamma, bits=256, one_sided=False):
    """(T_0, T_1, T_2) to 40 digits by direct summation in mpmath fixed point.

    T_w = sum n^w exp(-lam n^2 + 2 lam gamma n) over |n - gamma| <= sqrt(92/lam),
    and n >= 0 where ``one_sided``, every term from the recurrence
    t(n+1) = t(n) rho(n), rho(n+1) = rho(n) q^2; no theta identity or
    Euler-Maclaurin sum is used, so it is an independent reference for both.
    The fixed point keeps ``bits`` bits below the edge terms, which lie up to
    exp(-lam (width + 1/2)^2) below the peak.
    """
    mpmath = pytest.importorskip("mpmath")
    width = int(math.sqrt(92.0 / lam)) + 2
    bits += int(lam * (width + 0.5) ** 2 / math.log(2.0)) + 1
    with mpmath.workprec(bits + 64):
        lam_mp, gamma_mp = mpmath.mpf(lam), mpmath.mpf(gamma)
        lo = int(round(gamma)) - width
        hi = lo + 2 * width
        if one_sided:
            lo, hi = max(lo, 0), max(hi, 0)

        def fixed(v):
            return int(mpmath.nint(mpmath.ldexp(v, bits)))

        t = fixed(mpmath.exp(-lam_mp * (lo - gamma_mp) ** 2))  # over exp(lam gamma^2)
        rho = fixed(mpmath.exp(-lam_mp * (2 * lo + 1) + 2 * lam_mp * gamma_mp))
        q2 = fixed(mpmath.exp(-2 * lam_mp))
        s0 = s1 = s2 = 0
        for n in range(lo, hi + 1):
            s0 += t
            s1 += n * t
            s2 += n * n * t
            t = (t * rho) >> bits
            rho = (rho * q2) >> bits
        pref = mpmath.ldexp(mpmath.exp(lam_mp * gamma_mp**2), -bits)
        return tuple(s * pref for s in (s0, s1, s2))


def _dual(lam, gamma, weight, acc=DEFAULT_ACCURACY):
    """The theta-side router at one weight: the Poisson dual below DUAL_CROSSOVER_LAMBDA."""
    return sf._theta_reports(lam, gamma, False, acc, (weight,))[0]


def _dual_draws(seed, n, lo):
    """n draws of (lam, gamma): lam log-uniform in [lo, DUAL_CROSSOVER_LAMBDA) and
    |gamma| <= 11, which covers validate's x = exp(2 lam gamma) in [0.1, 10]."""
    rng = random.Random(seed)
    for _ in range(n):
        lam = math.exp(rng.uniform(math.log(lo), math.log(sf.DUAL_CROSSOVER_LAMBDA)))
        yield lam, rng.uniform(-11.0, 11.0)


class TestPoissonDual:
    """Full-lattice theta-side series below DUAL_CROSSOVER_LAMBDA: the Poisson dual."""

    @pytest.mark.parametrize("lam,gamma", [(1e-4, 0.37), (3e-3, -1.6), (0.04, 1.2)])
    def test_reference_matches_jtheta(self, lam, gamma):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            z, q = -1j * mpmath.mpf(lam) * gamma, mpmath.exp(-mpmath.mpf(lam))
            # theta_3(z, q) = sum q^(n^2) e^(2inz); each z-derivative brings 2in.
            jt = [(mpmath.jtheta(3, z, q, d) / (2j) ** d).real for d in (0, 1, 2)]
            for ref, expected in zip(_mp_series(lam, gamma), jt):
                assert abs(ref - expected) <= mpmath.mpf(10) ** -25 * abs(expected)

    def test_matches_mpmath(self):
        for lam, gamma in _dual_draws(20, 48, 1e-8):
            for weight, ref in enumerate(_mp_series(lam, gamma)):
                rep = _dual(lam, gamma, weight)
                if lam < sf.SLOW_DECAY_LAMBDA:
                    assert rep.terms_used == 3
                assert rep.terms_used % 2 == 1 and rep.terms_used >= 3
                assert abs(rep.value - ref) <= 2e-15 * abs(ref), (lam, gamma, weight)

    def test_agrees_with_gauss_sum_full(self):
        # The oracle sums directly.  Its certificate is relative to the sum of
        # absolute terms, which for weight 1 is at most sqrt(G_0 G_2).
        tol = 10 * DEFAULT_ACCURACY.rel_tol
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for lam, gamma in _dual_draws(21, 60, 1e-3):
                direct = [gauss_sum_full(lam, gamma, 0.0, w) for w in (0, 1, 2)]
                scales = [direct[0], math.sqrt(direct[0] * direct[2]), direct[2]]
                for weight in (0, 1, 2):
                    dual = math.exp(-lam * gamma * gamma) * _dual(lam, gamma, weight).value
                    assert abs(dual - direct[weight]) <= tol * scales[weight], (lam, gamma, weight)

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("weight", [0, 1, 2])
    def test_routes_agree_at_the_switch(self, side, weight):
        lam, gamma = sf.DUAL_CROSSOVER_LAMBDA * (1.0 + side * 1e-6), 0.83
        rep = _dual(lam, gamma, weight)
        log_pref = lam * gamma * gamma  # as the direct route forms it
        direct = sf._lattice_sum(lam, gamma, 0.0, weight, False, DEFAULT_ACCURACY, log_pref)
        if side > 0:
            assert rep == direct  # at and above the switch the series is summed directly
        else:
            assert rep == sf._poisson_dual(lam, gamma, (weight,), DEFAULT_ACCURACY)[0]
        ref = _mp_series(lam, gamma)[weight]
        tol = 10 * DEFAULT_ACCURACY.rel_tol
        assert abs(rep.value - ref) <= tol * abs(ref)
        assert abs(direct.value - ref) <= tol * abs(ref)

    def test_theta3_does_not_warn_but_the_oracle_does(self):
        lam, gamma = 1e-3, 0.4
        x, q = math.exp(2.0 * lam * gamma), math.exp(-lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta3(x, q)
            theta3_report(x, q)
            partial_theta(x, q)  # one-sided: Euler-Maclaurin
        with pytest.warns(RuntimeWarning, match="slow Gaussian decay"):
            gauss_sum_full(lam, gamma, 0.0, 0)
        with pytest.warns(RuntimeWarning, match="slow Gaussian decay"):
            gauss_sum_half(lam, gamma, 0.0, 0)

    @pytest.mark.parametrize("weight", [0, 1, 2])
    def test_prefactor_past_double_range_is_no_convergence(self, weight):
        lam = 0.01
        gamma = math.sqrt(709.5 / lam)
        with pytest.raises(NoConvergence, match="double-precision range"):
            _dual(lam, gamma, weight)
        with pytest.raises(NoConvergence, match="double-precision range"):
            theta3(math.exp(2.0 * lam * gamma), math.exp(-lam))

    @pytest.mark.parametrize("lam", [1e-305, 5e-324])
    def test_dual_decay_rate_past_double_range_is_no_convergence(self, lam):
        with pytest.raises(NoConvergence, match="out of range"):
            _dual(lam, 0.3, 0)

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-12, 1e-15, 1e-200])
    @pytest.mark.parametrize("lam", [1e-8, 2e-4, 0.049])
    @pytest.mark.parametrize("weight", [0, 1, 2])
    def test_tail_bound_below_rel_tol(self, rel_tol, lam, weight):
        rep = _dual(lam, -0.7, weight, SumAccuracy(rel_tol=rel_tol))
        assert 0.0 < rep.tail_bound <= rel_tol * abs(rep.value)
        assert rep.terms_used in (3, 5)

    def test_tail_bound_is_the_integral_bound_on_the_dual_tail(self):
        # weight 0, gamma 0, K = 1: the discarded 2r sum_{k>=2} e^(-mu k^2) is
        # at most 2r int_1^inf e^(-mu t^2) dt <= r e^(-mu)/mu.
        lam = 0.04
        mu, r = math.pi**2 / lam, math.sqrt(math.pi / lam)
        rep = _dual(lam, 0.0, 0)
        assert rep.terms_used == 3
        assert math.isclose(rep.tail_bound, r * math.exp(-mu) / mu, rel_tol=1e-12)
        assert math.log(rep.tail_bound) > math.log(2.0 * r) - 4.0 * mu

    def test_odd_series_at_zero_shift_is_exactly_zero(self):
        rep = _dual(1e-3, 0.0, 1)
        assert repr(rep.value) == "0.0" and rep.tail_bound > 0.0

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-12, 1e-15])
    def test_shared_triple_is_each_weights_own_report(self, rel_tol):
        # One run serves the triple; each weight stops on its own test.
        acc = SumAccuracy(rel_tol=rel_tol)
        points = list(_dual_draws(22, 40, 1e-6)) + [(0.7, 0.0), (2.5, 0.5), (3.0, -4.5)]
        for lam, gamma in points:
            triple = sf._theta_reports(lam, gamma, False, acc)
            assert triple == sf._poisson_dual(lam, gamma, (0, 1, 2), acc)
            for weight, rep in enumerate(triple):
                assert rep == sf._poisson_dual(lam, gamma, (weight,), acc)[0]
                assert rep == sf._theta_reports(lam, gamma, False, acc, (weight,))[0]

    @pytest.mark.parametrize("gamma", [15.4999] + [m + 0.5 for m in range(15, 32)])
    def test_keeps_the_top_of_the_double_range(self, gamma):
        # lam gamma^2 = 709.2: exp(lam gamma^2) alone leaves the double range, while
        # theta3 itself does so only for the half-integer gamma >= 27.5.
        mpmath = pytest.importorskip("mpmath")
        lam = 709.2 / gamma**2
        x, q = math.exp(2.0 * lam * gamma), math.exp(-lam)
        lam_x, gamma_x = sf._theta_params(x, q)
        assert lam_x * gamma_x * gamma_x > 709.0
        ref = _mp_theta3(x, q)
        if ref > mpmath.mpf(sys.float_info.max):
            with pytest.raises(NoConvergence, match="double-precision range"):
                theta3(x, q)
            return
        assert lam_x < sf.DUAL_CROSSOVER_LAMBDA
        assert abs(theta3(x, q) - ref) <= 10 * DEFAULT_ACCURACY.rel_tol * ref


def _mp_theta3(x, q):
    """sum q^(n^2) x^n at the doubles x, q to 40 digits, over |n - gamma| <= sqrt(120/lam) + 3."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x_mp, q_mp = mpmath.mpf(x), mpmath.mpf(q)
        lam = -mpmath.log(q_mp)
        peak = int(mpmath.nint(mpmath.log(x_mp) / (2 * lam)))
        width = int(math.sqrt(120.0 / float(lam))) + 3
        return mpmath.fsum(q_mp ** (n * n) * x_mp**n for n in range(peak - width, peak + width + 1))


def test_theta3_on_the_validate_grid_keeps_its_digits():
    # The theta families' random points of ``validate --seed 1`` (as run_validation
    # draws them), the first 200: theta3 within 4e-15 of a 40-digit sum.
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(1)
    xs = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 1000))
    qs = rng.uniform(0.01, 0.9, 1000)
    worst = max(
        (float(abs(theta3(x, q) - ref) / ref), x, q)
        for x, q in zip(xs.tolist()[:200], qs.tolist()[:200])
        for ref in [_mp_theta3(x, q)]
    )
    assert worst[0] <= 4e-15, worst


@st.composite
def _one_sided_points(draw):
    """(lam, gamma): lam log-uniform in [1e-6, 0.05); gamma in [-0.5, 30], or, one
    draw in five, past the Euler-Maclaurin threshold sqrt(lam) gamma = -1/2."""
    lam = draw(_log_uniform(1e-6, sf.SLOW_DECAY_LAMBDA * 0.9999))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        past = draw(st.floats(min_value=1.0, max_value=4.0))
        return lam, -past * sf._EM_SIGMA / math.sqrt(lam)
    return lam, draw(st.floats(min_value=-0.5, max_value=30.0))


class TestEulerMaclaurin:
    """One-sided theta-side series below SLOW_DECAY_LAMBDA against a 40-digit mpmath sum."""

    ULPS = 8 * 2.0**-52  # rounding the engine's value may add beyond its tail bound

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(point=_one_sided_points())
    def test_value_within_its_bound_of_mpmath(self, point):
        lam, gamma = point
        acc = DEFAULT_ACCURACY
        reports = sf._euler_maclaurin(lam, gamma, acc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the direct fallback warns
            routed = sf._theta_reports(lam, gamma, True, acc)
            alone = [sf._theta_reports(lam, gamma, True, acc, (w,))[0] for w in (0, 1, 2)]
        assert alone == list(routed)
        refs = _mp_series(lam, gamma, one_sided=True)
        if math.sqrt(lam) * gamma < -sf._EM_SIGMA:
            assert reports is None  # direct, certified against the sum of its terms
            for rep, ref in zip(routed, refs):
                assert abs(rep.value - ref) <= acc.rel_tol * abs(ref), (lam, gamma)
            return
        assert routed == reports
        for rep, ref in zip(reports, refs):
            assert abs(rep.value - ref) <= rep.tail_bound + self.ULPS * abs(ref), (lam, gamma)
            assert 0.0 < rep.tail_bound <= acc.rel_tol * abs(rep.value)
            assert 2 <= rep.terms_used <= len(sf._EM_COEF) + 1

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-6])
    def test_true_error_lies_inside_the_bound_at_loose_tolerance(self, rel_tol):
        # Only errors well above rounding are graded against the bound alone.
        # The bound is loose: over these draws bound / true error runs from
        # 2.8e3 to 1.8e8, because it integrates |f^(2p)| over the whole
        # Gaussian while the remainder comes from the end point n = 0.
        rng = random.Random(23)
        acc = SumAccuracy(rel_tol=rel_tol)
        ratios = []
        for _ in range(12):
            lam = math.exp(rng.uniform(math.log(1e-6), math.log(sf.SLOW_DECAY_LAMBDA)))
            gamma = rng.uniform(-0.5, 30.0)
            refs = _mp_series(lam, gamma, one_sided=True)
            for rep, ref in zip(sf._euler_maclaurin(lam, gamma, acc), refs):
                error = float(abs(rep.value - ref))
                assert error <= rep.tail_bound, (lam, gamma, error, rep.tail_bound)
                assert rep.tail_bound <= rel_tol * abs(rep.value)
                if error > 100 * self.ULPS * abs(rep.value):
                    ratios.append(rep.tail_bound / error)
        assert ratios, "no sum stopped with a truncation error above rounding"
        assert min(ratios) >= 1.0, sorted(ratios)

    def test_fallback_threshold_splits_the_routes(self):
        lam = 1e-4
        below, above = (-sf._EM_SIGMA * f / math.sqrt(lam) for f in (1.0001, 0.9999))
        assert sf._euler_maclaurin(lam, below, DEFAULT_ACCURACY) is None
        with pytest.warns(RuntimeWarning, match="slow Gaussian decay"):
            partial_theta(math.exp(2.0 * lam * below), math.exp(-lam))
        assert sf._euler_maclaurin(lam, above, DEFAULT_ACCURACY) is not None

    def test_overflowing_weight_alone_raises(self):
        # lam gamma^2 = 706.6: T_0 is a finite double, T_1 and T_2 are not
        lam, gamma = 0.0499, 119.0
        (t0,) = sf._theta_reports(lam, gamma, True, DEFAULT_ACCURACY, (0,))
        assert math.isfinite(t0.value)
        with pytest.raises(NoConvergence, match="double-precision range"):
            sf._theta_reports(lam, gamma, True, DEFAULT_ACCURACY, (2,))
        with pytest.raises(NoConvergence, match="double-precision range"):
            sf._theta_reports(lam, gamma, True, DEFAULT_ACCURACY)
