"""Lattice Gaussian sums and theta functions with certified truncation error.

Everything in this module is a truncated evaluation of one of four series:

    theta3(x, q)        = sum_{n in Z}  q^(n^2) x^n          (Jacobi theta_3)
    partial_theta(x, q) = sum_{n >= 0}  q^(n^2) x^n
    gauss_sum_full(lam, gamma, c, w) = sum_{n in Z}  (n-c)^w exp(-lam (n-gamma)^2)
    gauss_sum_half(lam, gamma, c, w) = sum_{n >= 0} (n-c)^w exp(-lam (n-gamma)^2)

With x = exp(2 lam gamma) and q = exp(-lam), the theta series are the
weight-0 Gaussian sums up to the prefactor exp(-lam gamma^2).  The direct
engine ``_lattice_sum`` adds terms in rings expanding symmetrically outward
from the peak index round(gamma); summation stops when the last ring falls
below ``rel_tol`` times the running total of absolute terms AND an analytic
bound on the discarded Gaussian tail (an integral comparison, evaluated in
log space so it never over- or underflows) certifies the same tolerance.

Theta-side series T_w = sum n^w q^(n^2) x^n (w = 0, 1, 2; the theta
functions and the closed forms' derivative series) all come from one router,
``_theta_reports``, which takes one of three routes by decay rate:

* dual: full-lattice T_w with lam below DUAL_CROSSOVER_LAMBDA = pi go through
  Jacobi's imaginary transformation (Poisson summation, DLMF 20.7(viii)).
  The dual series decays at pi^2/lam, faster than the direct lam everywhere
  below the self-dual point pi.  At rel_tol 1e-12 it is certified after one
  to four dual indices (more only where a weight's value cancels to near
  0), and one run of ``_poisson_dual`` sums a whole triple T_0, T_1, T_2;
* Euler-Maclaurin: partial theta has no such transformation, so one-sided
  T_w below SLOW_DECAY_LAMBDA are the integral through erfc plus Bernoulli
  corrections (DLMF 2.10(i)), certified by a bound on the remainder after 3
  to 9 corrections at rel_tol 1e-12.  Where sqrt(lam) gamma < -1/2 their
  integral cancels, and they stay direct;
* direct: ``_lattice_sum``, for every other series: full-lattice ones at
  lam >= pi and one-sided ones at lam >= SLOW_DECAY_LAMBDA.

This gives up the earlier single code path on purpose: the direct engine
needs ~1,000 terms per sum at lam = 1e-4 and loses digits at weight 1, while
the dual and Euler-Maclaurin are both cheaper and closer to the exact value.

A grid of theta3 or partial-theta points is one call of the batch kernel
``_theta_batch``, which gives each point the scalar report bit for bit.  It
runs two of the routes above on numpy arrays, at weight 0, each point
stopping at its own ring or dual index: the dual for full-lattice points
below DUAL_CROSSOVER_LAMBDA, and the direct ring loop for full-lattice
points above it and one-sided points at or above SLOW_DECAY_LAMBDA.  It
hands every other point to ``theta3_report`` or ``partial_theta_report``,
with their warnings and errors: bad arguments, slow decay (Euler-Maclaurin
or a warned direct sum), a peak exponent above 709, the term cap, the dual's
range limits and a sum past the double range.  The scalar functions stay
the reference that the kernel is tested against.  A caller that sums
several batches on one grid forms lam = -log(q) and log(x) once each
(``_batch_lam``, ``_batch_log_x``) and hands them to ``_theta_batch_logs``.

The gauss_sum_* functions always sum directly and never route through theta
identities, the dual or Euler-Maclaurin; they are the brute-force oracles
that the closed-form expressions elsewhere in the package are validated
against, so the two routes stay independent at every decay rate.  At small
lam the direct engine widens its term cap and emits a RuntimeWarning, so
the sums that can still warn are the oracles and the one-sided theta-side
series below sqrt(lam) gamma = -1/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import AnyonOttoError, DomainError, NoConvergence

__all__ = [
    "SumAccuracy",
    "SumReport",
    "DEFAULT_ACCURACY",
    "theta3",
    "theta3_report",
    "partial_theta",
    "partial_theta_report",
    "gauss_sum_full",
    "gauss_sum_full_report",
    "gauss_sum_half",
    "gauss_sum_half_report",
]

# Below this decay rate the ring sums need O(1/sqrt(lam)) terms per digit.
SLOW_DECAY_LAMBDA = 0.05
# The slow-decay test is lam < _SLOW_DECAY_BELOW: the tiny slack keeps the
# boundary value itself (reached via -log(exp(-x)) roundtrips) on the direct,
# unwarned route, in ``_lattice_sum`` and the router alike.
_SLOW_DECAY_BELOW = SLOW_DECAY_LAMBDA * (1.0 - 1e-9)

# Below this decay rate a full-lattice theta-side series is summed in its
# Poisson dual: the self-dual point pi, measured in ``_theta_reports``.
DUAL_CROSSOVER_LAMBDA = math.pi

# Smallest positive normal double; used as a floor in relative comparisons.
_TINY = 2.2250738585072014e-308
_PI_SQUARED = math.pi * math.pi
_EXP_709 = math.exp(709.0)

# B_2k / (2k)! for k = 1..20 (DLMF 24.2.1): the Euler-Maclaurin coefficients.
_EM_COEF = (
    0.08333333333333333,
    -0.001388888888888889,
    3.306878306878307e-05,
    -8.267195767195768e-07,
    2.08767569878681e-08,
    -5.284190138687493e-10,
    1.3382536530684679e-11,
    -3.3896802963225827e-13,
    8.586062056277845e-15,
    -2.174868698558062e-16,
    5.5090028283602295e-18,
    -1.3954464685812522e-19,
    3.534707039629467e-21,
    -8.953517427037546e-23,
    2.267952452337683e-24,
    -5.744790668872202e-26,
    1.455172475614865e-27,
    -3.6859949406653103e-29,
    9.336734257095045e-31,
    -2.36502241570063e-32,
)
# Per correction count p: (B_2p/(2p)!, its remainder factor |B_2p|/(2p)! pi^(1/4)
# sqrt(2^(2p) (2p)!), sqrt(p), sqrt(2p (2p-1))/2); see ``_euler_maclaurin``.
_EM_TERMS = tuple(
    (
        c,
        abs(c) * math.pi**0.25 * math.sqrt(4.0**p * math.factorial(2 * p)),
        math.sqrt(p),
        math.sqrt(2 * p * (2 * p - 1)) / 2.0,
    )
    for p, c in enumerate(_EM_COEF, start=1)
)
# sqrt(Gamma(i + 1/2)) for i = 0, 1, 2: the Gaussian moments in the remainder bound.
_EM_MOMENTS = (math.pi**0.25, (math.pi / 4.0) ** 0.25, (9.0 * math.pi / 16.0) ** 0.25)
# Euler-Maclaurin takes a one-sided series only while sqrt(lam) gamma >= -_EM_SIGMA.
# Below it the weight-1 and weight-2 integrals cancel against 1/(2 lam): at -1
# the values' rounding error reaches 16 ulps, at -1/2 it stays within 3.
_EM_SIGMA = 0.5


def require_finite(**values) -> None:
    """Raise DomainError naming the first keyword argument that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SumAccuracy:
    """Truncation policy: relative tolerance and a hard cap on summed terms."""

    rel_tol: float = 1e-12
    max_terms: int = 10**6

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_terms < 8:
            raise DomainError(f"max_terms must be >= 8, got {self.max_terms}")


DEFAULT_ACCURACY = SumAccuracy()


class SumReport(NamedTuple):
    """A truncated sum together with its certificate.

    ``tail_bound`` is an analytic upper bound on the total absolute
    contribution of every term beyond the last summed index; for an
    Euler-Maclaurin sum it bounds the remainder, and ``terms_used`` counts
    the integral and the correction terms (see ``_euler_maclaurin``).
    """

    value: float
    tail_bound: float
    terms_used: int


def _log_gauss_tail(lam: float, u: float, b: float, weight: int) -> float:
    """log of an upper bound on sum_{n >= N+1} |n-c|^w exp(-lam (n-gamma)^2).

    ``u = N - gamma`` is the distance of the last summed index from the
    Gaussian center and ``b = |gamma - c|``.  Uses the integral comparison
    valid for u >= 1/sqrt(lam) (the integrand is then decreasing), with
    erfc replaced by the standard bound int_a^inf e^(-lam t^2) dt <=
    e^(-lam a^2)/(2 lam a).
    """
    if weight == 0:
        coef = 1.0 / (2.0 * lam * u)
    elif weight == 1:
        coef = 1.0 / (2.0 * lam) + b / (2.0 * lam * u)
    else:  # weight == 2, via (t-c)^2 <= (t-g)^2 + 2b(t-g) + b^2 for t >= gamma
        coef = (
            u / (2.0 * lam)
            + 1.0 / (4.0 * lam * lam * u)
            + b / lam
            + b * b / (2.0 * lam * u)
        )
    if coef == 0.0:
        # coef underflowed because its denominators overflow: it is below 1,
        # so dropping its negative log only loosens the bound.
        return -lam * u * u
    return -lam * u * u + math.log(coef)


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _exp_round_up(log_x: float) -> float:
    """exp() that never rounds a positive bound down to exactly zero."""
    if log_x == -math.inf:
        return 0.0
    val = math.exp(log_x)
    return val if val > 0.0 else 5e-324


def _past_double_range(lam: float, gamma: float, weight: int) -> NoConvergence:
    """The error of a weight-``weight`` sum whose value lies past the double range."""
    return NoConvergence(
        f"lattice sum exceeds the double-precision range "
        f"(lambda={lam:g}, gamma={gamma:g}, weight={weight})"
    )


def _lattice_sum(
    lam: float,
    gamma: float,
    c: float,
    weight: int,
    one_sided: bool,
    acc: SumAccuracy,
    log_pref: float = 0.0,
) -> SumReport:
    """Core engine: sum (n-c)^weight * exp(-lam*(n-gamma)^2 + log_pref).

    Two-sided sums run over all of Z, one-sided sums over n >= 0.  The peak
    term sits at n0 = round(gamma) (clamped to 0 for one-sided sums); rings
    {n0+k, n0-k} are added outward until both the ring-size rule and the
    analytic tail certificate hold at ``acc.rel_tol``.

    The returned bits depend on the summation order, which is fixed: the
    running total starts as ``0.0 + t(n0)``, and ring k then adds
    ``t(n0+k)`` before ``t(n0-k)`` (the low term only while n0-k is in the
    range).  The ring's absolute sum is ``|t(n0+k)| + |t(n0-k)|`` in that
    order, and it joins the running absolute total as one addend.
    """
    max_terms = acc.max_terms
    if lam < _SLOW_DECAY_BELOW:
        warnings.warn(
            f"slow Gaussian decay (lambda={lam:g} < {SLOW_DECAY_LAMBDA}); "
            "raising the term cap",
            RuntimeWarning,
            stacklevel=3,
        )
        max_terms *= 16

    rel_tol = acc.rel_tol
    exp = math.exp
    two_sided = not one_sided
    peak = int(round(gamma))
    if one_sided and peak < 0:
        peak = 0
    inv_sqrt_lam = 1.0 / math.sqrt(lam)
    b = abs(gamma - c)

    # Each term is written out in place: t(n) = (n-c)^weight * exp(expo).  Only
    # the peak is tested for overflow: it minimises |n - gamma|, and rounding is monotone.
    n = peak
    expo = -lam * (n - gamma) ** 2 + log_pref
    if expo > 709.0:
        raise NoConvergence(
            f"term at n={n} exceeds the double-precision range (exponent {expo:.1f})"
        )
    mag = exp(expo)
    t = mag if weight == 0 else (n - c) * mag if weight == 1 else (n - c) ** 2 * mag
    total = 0.0 + t  # turns a lone -0.0 into 0.0
    total_abs = abs(t)
    n_lo = n_hi = peak  # the summed indices are exactly n_lo..n_hi

    while True:
        n_hi += 1
        n = n_hi
        mag = exp(-lam * (n - gamma) ** 2 + log_pref)
        t = mag if weight == 0 else (n - c) * mag if weight == 1 else (n - c) ** 2 * mag
        total += t
        ring_abs = abs(t)
        if two_sided or n_lo > 0:
            n_lo -= 1
            n = n_lo
            mag = exp(-lam * (n - gamma) ** 2 + log_pref)
            t = mag if weight == 0 else (n - c) * mag if weight == 1 else (n - c) ** 2 * mag
            total += t
            ring_abs += abs(t)
        total_abs += ring_abs
        terms_used = n_hi - n_lo + 1
        if terms_used > max_terms:
            raise NoConvergence(
                f"lattice sum needed more than {max_terms} terms "
                f"(lambda={lam:g}, gamma={gamma:g}, weight={weight})"
            )

        # rel_tol * max(total_abs, _TINY), NaN passing through as max() does;
        # where that underflows to 0 (rel_tol below ~2.2e-16), the least double
        # keeps the ring rule and the log of the certificate defined.
        threshold = rel_tol * (_TINY if total_abs < _TINY else total_abs) or 5e-324
        if ring_abs <= threshold:
            # Every term can be finite while their sum is not.  An infinite
            # total_abs meets the ring rule at the next ring, so checking only
            # once the rule holds still catches it, off the per-ring path.
            if not math.isfinite(total_abs):
                raise _past_double_range(lam, gamma, weight)
            # Tail certificates require the last index on each open side to
            # sit in the monotone region beyond the Gaussian peak.
            u_hi = n_hi - gamma
            u_lo = gamma - n_lo
            left_open = two_sided or n_lo != 0
            if u_hi >= inv_sqrt_lam and (not left_open or u_lo >= inv_sqrt_lam):
                log_tail = log_pref + _log_gauss_tail(lam, u_hi, b, weight)
                if left_open:
                    log_tail = _logaddexp(
                        log_tail, log_pref + _log_gauss_tail(lam, u_lo, b, weight)
                    )
                if log_tail <= math.log(threshold):
                    return SumReport(
                        value=total,
                        tail_bound=_exp_round_up(log_tail),
                        terms_used=terms_used,
                    )


def _two_product(a: float, b: float) -> tuple:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker), if nothing overflows."""
    p = a * b
    c = 134217729.0 * a  # 2^27 + 1 splits a double into two 26-bit halves
    a_hi = c - (c - a)
    c = 134217729.0 * b
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _prefactor(lam: float, gamma: float, log_pref: float, shift: float = 0.0) -> float:
    """exp(log_pref - shift), log_pref the rounded lam gamma^2, with that rounding carried."""
    pref = math.exp(log_pref - shift)
    if log_pref > 1.0:  # carry the product's rounding, which exp magnifies log_pref-fold
        lam_gamma, err = _two_product(lam, gamma)
        pref *= 1.0 + (_two_product(lam_gamma, gamma)[1] + err * gamma)
    return pref


def _euler_maclaurin(lam: float, gamma: float, acc: SumAccuracy) -> tuple | None:
    """One-sided T_w = sum_{n >= 0} n^w q^(n^2) x^n, w = 0, 1, 2, by Euler-Maclaurin.

    With E = exp(lam gamma^2) and g(t) = exp(-lam (t - gamma)^2), T_w is E
    times the sum over n >= 0 of f(n) = n^w g(n), and for p >= 1 (DLMF 2.10.1)

        sum f(n) = int_0^inf f + f(0)/2 - sum_{k=1}^p B_2k/(2k)! f^(2k-1)(0) + R_p,
        |R_p| <= |B_2p|/(2p)! int_0^inf |f^(2p)|.

    E times the integral is J, 1/(2 lam) + gamma J and gamma/(2 lam) +
    (gamma^2 + 1/(2 lam)) J for w = 0, 1, 2, with J = E sqrt(pi/lam)
    erfc(-sqrt(lam) gamma)/2; E f(0)/2 is 1/2 for w = 0 and 0 otherwise.  The
    derivatives come from one Hermite recurrence: E g^(m)(0) = h_m =
    (-sqrt(lam))^m H_m(-sqrt(lam) gamma), so h_0 = 1, h_1 = 2 lam gamma and
    h_(m+1) = 2 lam gamma h_m - 2 m lam h_(m-1), and E f^(m)(0) is h_m,
    m h_(m-1) and m (m-1) h_(m-2) for w = 0, 1, 2.

    The remainder bound: Leibniz splits (t^w g)^(2p) into at most three
    terms t^j g^(m); on t >= 0, t = gamma + s/sqrt(lam) gives t^j <= (|gamma|
    + |s|/sqrt(lam))^j, and Cauchy-Schwarz bounds each int |s|^i |H_m(s)|
    e^(-s^2) ds by sqrt(Gamma(i + 1/2)) sqrt(sqrt(pi) 2^m m!).  The three
    series share one run, which stops at the first p where every bound
    E |R_p| is at most rel_tol |T_w|.  Each report's ``tail_bound`` is its
    bound at that p, and its ``terms_used`` is p + 1: the integral and p
    correction terms.

    Returns the three reports, or None, for the caller to sum directly, where
    sqrt(lam) gamma < -_EM_SIGMA (the integral cancels there for w = 1, 2)
    and where no p in ``_EM_COEF`` certifies rel_tol.  A value past the
    double range is left infinite for the caller to refuse.
    """
    root = math.sqrt(lam)
    if root * gamma < -_EM_SIGMA:
        return None
    lam_gamma = lam * gamma
    log_pref = lam_gamma * gamma
    if log_pref > 709.0:
        raise NoConvergence(
            f"theta series prefactor exceeds the double-precision range "
            f"(exponent {log_pref:.1f})"
        )
    pref = _prefactor(lam, gamma, log_pref)
    inv_root = 1.0 / root
    half_inv_lam = 0.5 / lam
    j = 0.5 * math.sqrt(math.pi) * inv_root * math.erfc(-root * gamma) * pref
    t0 = j + 0.5
    t1 = half_inv_lam + gamma * j
    t2 = gamma * half_inv_lam + (gamma * gamma + half_inv_lam) * j
    # moments of (|gamma| + |s|/sqrt(lam))^j against |H_m(s)| e^(-s^2), j = 0, 1, 2
    m0, m1, m2 = _EM_MOMENTS
    g = abs(gamma)
    p1 = g * m0 + m1 * inv_root
    p2 = g * g * m0 + 2.0 * g * m1 * inv_root + m2 * inv_root * inv_root
    u, v = 2.0 * lam_gamma, 2.0 * lam
    h_odd, h_even = 0.0, 1.0  # h_(2p-3) and h_(2p-2), with h_(-1) = 0
    scale = pref * inv_root  # E lam^(p - 1/2)
    rel_tol = acc.rel_tol
    for p, (coef, bound_coef, root_p, half_root_2p) in enumerate(_EM_TERMS, start=1):
        t2 -= coef * ((2 * p - 1) * (2 * p - 2)) * h_odd
        t1 -= coef * (2 * p - 1) * h_even
        h_odd = u * h_even - v * (2 * p - 2) * h_odd
        t0 -= coef * h_odd
        h_even = u * h_odd - v * (2 * p - 1) * h_even
        scale *= lam
        b = scale * bound_coef
        b0 = b * m0
        b1 = b * (p1 + root_p * m0 * inv_root)
        b2 = b * (p2 + (2.0 * root_p * p1 + half_root_2p * m0 * inv_root) * inv_root)
        if b0 <= rel_tol * abs(t0) and b1 <= rel_tol * abs(t1) and b2 <= rel_tol * abs(t2):
            break
    else:
        return None
    return tuple(
        SumReport(0.0 + t, bound if bound > 0.0 else 5e-324, p + 1)
        for t, bound in ((t0, b0), (t1, b1), (t2, b2))
    )


def _theta_reports(
    lam: float, gamma: float, one_sided: bool, acc: SumAccuracy, weights: tuple = (0, 1, 2)
) -> tuple:
    """Certified T_w = sum n^w q^(n^2) x^n, x = exp(2 lam gamma), q = exp(-lam), w in ``weights``.

    The one place a theta-side series' route is chosen.  Full-lattice series
    with lam below DUAL_CROSSOVER_LAMBDA are one run of ``_poisson_dual``, and
    one-sided ones with lam below SLOW_DECAY_LAMBDA one run of
    ``_euler_maclaurin`` where it takes them, shared by the weights asked for
    (increasing).  Every other series is one ``_lattice_sum`` per weight, with
    the prefactor exp(lam gamma^2) in its terms.

    DUAL_CROSSOVER_LAMBDA is the self-dual point pi, where the dual's decay
    pi^2/lam meets the direct lam; above it the dual needs more terms.  Per
    call, with gamma uniform in [-3, 3] (medians of 9 runs of 1,000 calls,
    2-vCPU Xeon, Python 3.11), direct against dual in microseconds:

        lam     T_0        T_1        T_2        triple
        0.1     18.7/3.2   20.7/3.0   20.0/3.6   49.0/4.7
        1.0      6.1/3.1    8.4/4.2    8.2/4.9   23.3/5.9
        3.0      7.7/5.4    5.9/4.4    6.2/5.6   19.2/7.6
        3.1416   4.8/3.6    5.8/4.2    6.5/7.0   18.3/8.8

    The dual is the cheaper side below pi except for a lone T_2 near pi,
    which only ``theta3_weighted`` asks for; the closed forms take T_1 and
    T_2 as triples.  A lam or gamma out of range raises DomainError, and a
    weight asked for whose value or terms pass the double range NoConvergence.
    """
    if not lam > 0.0:
        raise DomainError(f"series decay rate must be positive, got {lam}")
    if lam == math.inf:
        raise DomainError(f"series decay rate must be finite, got {lam}")
    if not math.isfinite(gamma):
        require_finite(gamma=gamma)
    try:
        if one_sided:
            if lam < _SLOW_DECAY_BELOW:
                reports = _euler_maclaurin(lam, gamma, acc)
                if reports is not None:
                    for w in weights:
                        if not math.isfinite(reports[w].value):
                            raise _past_double_range(lam, gamma, w)
                    return tuple(reports[w] for w in weights)
        elif lam < DUAL_CROSSOVER_LAMBDA:
            return _poisson_dual(lam, gamma, weights, acc)
        log_pref = lam * gamma * gamma
        reports = ()
        for w in weights:  # a loop, cheaper per call than a generator's frame
            reports += (_lattice_sum(lam, gamma, 0.0, w, one_sided, acc, log_pref),)
        return reports
    except OverflowError:
        raise NoConvergence(
            f"series term exceeds the double-precision range (lambda={lam:g}, gamma={gamma:g})"
        ) from None


def _poisson_dual(lam: float, gamma: float, weights: tuple, acc: SumAccuracy) -> tuple:
    """Full-lattice T_w for each w in ``weights`` (increasing), in the Poisson dual, in one run.

    With mu = pi^2/lam, r = sqrt(pi/lam) and, over k >= 1,

        S_0 = r [1 + 2 sum e^(-mu k^2) cos 2 pi k gamma]
        S_1 = -r (2 pi/lam) sum k e^(-mu k^2) sin 2 pi k gamma
        S_2 = r/(2 lam) [1 + 2 sum e^(-mu k^2) (1 - 2 mu k^2) cos 2 pi k gamma]

    for S_w = sum (n-gamma)^w exp(-lam (n-gamma)^2) (Jacobi's imaginary
    transformation, DLMF 20.7(viii)), the series are T_0 = E S_0,
    T_1 = E (S_1 + gamma S_0) and T_2 = E (S_2 + 2 gamma S_1 + gamma^2 S_0)
    with E = exp(lam gamma^2).  The phases use gamma less its nearest
    integer, which is exact and leaves cos and sin of 2 pi k gamma as they
    are.  Dual index k >= 1 adds at most E C_w k^w e^(-mu k^2) to |T_w|, with
    C_0 = 2 r, C_1 = r (2 pi + 2 |gamma| lam)/lam and C_2 = r (2 mu +
    4 pi |gamma| + 2 gamma^2 lam)/lam, so the discarded part beyond K is at
    most E C_w times the integral bound of ``_log_gauss_tail(mu, K, 0, w)``:
    E r e^(-mu K^2) A_w with A_0 = 1/(mu K), A_1 = (2 pi + 2 |gamma| lam)/(2 pi^2)
    and A_2 = (2 mu + 4 pi |gamma| + 2 gamma^2 lam) (K/(2 pi^2) + 1/(4 pi^2 mu K)),
    using lam mu = pi^2.

    The weights share the sums over k, and each stops on its own at the
    first K >= 1 where its bound is at most rel_tol |T_w|, tested without E
    and in linear scale, where a bound that underflows to 0 passes; its
    report gives that bound and 2K + 1 terms.  So each weight's report is
    the same whichever other weights share the run.  E carries the rounding
    of lam gamma^2, as in ``_euler_maclaurin``.  Where E passes the double
    range, T_w is formed as (exp(lam gamma^2 - 709) (T_w/E)) e^709, and a
    T_w past the double range raises NoConvergence.
    """
    mu = _PI_SQUARED / lam
    if not mu < 1e300:  # keeps mu k^2 and the tail coefficients finite
        raise NoConvergence(f"dual decay rate pi^2/lambda is out of range (lambda={lam:g})")
    log_pref = lam * gamma * gamma
    if log_pref > 2.0 * 709.0:
        raise NoConvergence(
            f"theta series prefactor exceeds the double-precision range "
            f"(exponent {log_pref:.1f})"
        )
    r = math.sqrt(math.pi / lam)
    g = abs(gamma)
    a1 = (2.0 * math.pi + 2.0 * g * lam) / (2.0 * _PI_SQUARED)
    a2 = 2.0 * mu + 4.0 * math.pi * g + 2.0 * g * g * lam
    phase = 2.0 * math.pi * math.remainder(gamma, 1.0)
    s1_coef = 2.0 * math.pi / lam
    rel_tol = acc.rel_tol
    exp, cos, sin = math.exp, math.cos, math.sin
    top = weights[-1]
    # found[w]: None while weight w runs, then (T_w/E, its bound over E, A_w, K);
    # False where w is not asked for
    found = [False, False, False]
    for w in weights:
        found[w] = None
    left = len(weights)
    c0 = c1 = c2 = 0.0
    k = 0
    while left:
        k += 1
        decay = exp(-mu * k * k)
        rd = r * decay  # r times decay first: a decay that underflowed zeroes each bound
        cos_k = cos(k * phase)
        c0 += decay * cos_k
        s0 = r * (1.0 + 2.0 * c0)
        if found[0] is None:
            a = 1.0 / (mu * k)
            if rd * a <= rel_tol * abs(s0):
                found[0], left = (s0, rd * a, a, k), left - 1
        if top:
            c1 += k * decay * sin(k * phase)
            s1 = -(r * c1) * s1_coef
            if found[1] is None:
                v = s1 + gamma * s0
                if rd * a1 <= rel_tol * abs(v):
                    found[1], left = (v, rd * a1, a1, k), left - 1
            if top == 2:
                c2 += decay * (1.0 - 2.0 * mu * k * k) * cos_k
                if found[2] is None:
                    v = r / (2.0 * lam) * (1.0 + 2.0 * c2) + 2.0 * gamma * s1 + gamma * gamma * s0
                    a = a2 * (k / (2.0 * _PI_SQUARED) + 1.0 / (4.0 * _PI_SQUARED * mu * k))
                    if rd * a <= rel_tol * abs(v):
                        found[2], left = (v, rd * a, a, k), left - 1

    high = log_pref > 709.0  # E itself overflows where E |T_w/E| may not
    pref = _prefactor(lam, gamma, log_pref, 709.0 if high else 0.0)
    scale = _EXP_709 if high else 1.0
    reports = []
    for w in weights:
        v, tail, a, k = found[w]
        value = 0.0 + pref * v * scale  # 0.0 + turns -0.0 into 0.0, as the direct sum does
        if not math.isfinite(value):
            raise _past_double_range(lam, gamma, w)
        if tail >= _TINY:
            tail = pref * tail * scale
        else:  # the linear bound left the normal range: take it through its log
            tail = _exp_round_up(log_pref + math.log(r) + math.log(a) - mu * k * k)
        reports.append(SumReport(value, tail, 2 * k + 1))
    return tuple(reports)


def _theta_params(x: float, q: float) -> tuple[float, float]:
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    if x == math.inf:
        raise DomainError(f"x must be finite, got {x}")
    lam = -math.log(q)
    gamma = math.log(x) / (2.0 * lam)
    return lam, gamma


def theta3_report(x: float, q: float, acc: SumAccuracy = DEFAULT_ACCURACY) -> SumReport:
    """theta3 with its truncation certificate."""
    lam, gamma = _theta_params(x, q)
    return _theta_reports(lam, gamma, False, acc, (0,))[0]


def theta3(x: float, q: float, acc: SumAccuracy = DEFAULT_ACCURACY) -> float:
    """Jacobi theta function theta3(x, q) = sum_{n in Z} q^(n^2) x^n.

    Requires x > 0 and 0 < q < 1, which makes every term positive and the
    series absolutely convergent.  Satisfies theta3(x, q) = theta3(1/x, q).
    """
    return theta3_report(x, q, acc).value


def partial_theta_report(
    x: float, q: float, acc: SumAccuracy = DEFAULT_ACCURACY
) -> SumReport:
    """partial_theta with its truncation certificate."""
    lam, gamma = _theta_params(x, q)
    return _theta_reports(lam, gamma, True, acc, (0,))[0]


def partial_theta(x: float, q: float, acc: SumAccuracy = DEFAULT_ACCURACY) -> float:
    """Partial theta function: the one-sided sum over n >= 0 of q^(n^2) x^n.

    Splitting Z at n = 0 gives
    theta3(x, q) = partial_theta(x, q) + partial_theta(1/x, q) - 1.
    """
    return partial_theta_report(x, q, acc).value


# ---------------------------------------------------------------------------
# the batch kernel: theta3 and partial theta over a grid of points
# ---------------------------------------------------------------------------


def _map(f, a: np.ndarray, *args) -> np.ndarray:
    """f(element, *args) over ``a``'s elements as Python floats: libm's bits, not numpy's."""
    return np.fromiter(map(f, a.tolist(), *map(repeat, args)), float, len(a))


def _squares(a: np.ndarray) -> np.ndarray:
    """a ** 2 per element as Python computes it (libm pow), which np.square may not match."""
    return _map(pow, a, 2.0)


def _report_arrays(n: int) -> tuple:
    """Empty value, tail bound and terms-used arrays for n points."""
    return np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64)


def _batch_exp_round_up(log_x: np.ndarray) -> np.ndarray:
    val = _map(math.exp, log_x)
    return np.where(log_x == -math.inf, 0.0, np.where(val > 0.0, val, 5e-324))


def _batch_log_tail(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``_log_gauss_tail(lam, u, b, 0)`` per element."""
    coef = 1.0 / (2.0 * lam * u)
    core = -lam * u * u
    return np.where(coef == 0.0, core, core + _map(math.log, np.where(coef == 0.0, 1.0, coef)))


def _batch_logaddexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_logaddexp`` per element."""
    first = a >= b
    hi, lo = np.where(first, a, b), np.where(first, b, a)
    out = hi + _map(math.log1p, _map(math.exp, lo - hi))
    return np.where(a == -math.inf, b, np.where(b == -math.inf, a, out))


def _ring_terms(n, lam, gamma, log_pref) -> np.ndarray:
    """exp(-lam (n - gamma)^2 + log_pref) per element."""
    return _map(math.exp, -lam * _squares(n - gamma) + log_pref)


def _batch_direct(lam, gamma, one_sided: bool, acc: SumAccuracy) -> tuple:
    """``_lattice_sum`` at weight 0, c = 0 and log_pref = lam gamma^2, one point per element.

    Each point sums the scalar loop's rings in its order of terms and stops at
    the same ring.  The rings come in blocks: a point's block is as many
    rings as an estimate of where its ring rule and tail certificate first
    hold, and a point that has not stopped by then takes another block.  A
    block's cells, one per point and ring, are laid out ring by ring with
    the points in order of decreasing width, so that each ring's cells are
    one slice, and the running totals of all points are added a ring at a
    time, in the scalar order.  Returns the arrays (value, tail bound, terms
    used, back), where ``back`` marks the points the scalar engine must sum
    instead: a peak exponent above 709, the term cap, and a total past the
    double range, where it raises.
    """
    value, tail, terms = _report_arrays(len(lam))
    two_sided = not one_sided
    rel_tol, max_terms = acc.rel_tol, acc.max_terms
    log_pref = lam * gamma * gamma
    peak = np.round(gamma) + 0.0  # round() is half-even too; + 0.0 turns -0.0 into 0.0
    if one_sided:
        peak = np.maximum(peak, 0.0)
    expo = -lam * _squares(peak - gamma) + log_pref
    back = expo > 709.0
    live = np.flatnonzero(~back)
    lam, gamma, log_pref, peak = lam[live], gamma[live], log_pref[live], peak[live]
    total = 0.0 + _map(math.exp, expo[live])
    total_abs = np.abs(total)
    inv_sqrt_lam = 1.0 / np.sqrt(lam)
    # Ring k's terms fall below the peak's by lam (k^2 + 2 k d), d the slower
    # side's start past the centre; the ring rule needs that to reach
    # -log(rel_tol), and the certificate k >= 1/sqrt(lam) + 1/2.
    d = peak - gamma
    if two_sided:
        d = -np.abs(d)
    else:  # the low side is open from the start where the peak is above 0
        d = np.where(peak > 0.0, -np.abs(d), d)
    width = np.ceil(
        np.maximum(np.sqrt(d * d - math.log(rel_tol) / lam) - d, inv_sqrt_lam + 0.5)
    )
    summed = np.zeros(live.size)  # rings summed so far
    while live.size:
        order = np.argsort(-width, kind="stable")
        live, lam, gamma, log_pref, peak, inv_sqrt_lam, width, summed, total, total_abs = (
            a[order]
            for a in (live, lam, gamma, log_pref, peak, inv_sqrt_lam, width, summed, total,
                      total_abs)
        )
        # ring j of the block (j = 1, 2, ...) has a cell for each of the first size[j-1] points
        size = np.searchsorted(-width, -np.arange(1.0, width[0] + 1.0), side="right")
        start = np.cumsum(size) - size
        pt = np.arange(size.sum()) - np.repeat(start, size)
        ring = summed[pt] + np.repeat(np.arange(1.0, len(size) + 1.0), size)
        lam_c, gamma_c, log_pref_c, peak_c = lam[pt], gamma[pt], log_pref[pt], peak[pt]
        n_hi = peak_c + ring
        t_hi = _ring_terms(n_hi, lam_c, gamma_c, log_pref_c)
        t_lo = np.zeros(len(pt))
        if two_sided:
            n_lo = peak_c - ring
            t_lo = _ring_terms(n_lo, lam_c, gamma_c, log_pref_c)
        else:  # the low side runs while it has not reached n = 0
            n_lo = np.maximum(peak_c - ring, 0.0)
            lo = np.flatnonzero(peak_c >= ring)
            t_lo[lo] = _ring_terms(n_lo[lo], lam_c[lo], gamma_c[lo], log_pref_c[lo])
        ring_abs = t_hi + t_lo  # the terms are positive
        run_total, run_abs = np.empty(len(pt)), np.empty(len(pt))
        for first, m in zip(start.tolist(), size.tolist()):
            cells = slice(first, first + m)
            run_total[cells] = total[:m] = total[:m] + t_hi[cells] + t_lo[cells]
            run_abs[cells] = total_abs[:m] = total_abs[:m] + ring_abs[cells]
        count = n_hi - n_lo + 1.0
        capped = count > max_terms
        threshold = np.maximum(rel_tol * np.where(run_abs < _TINY, _TINY, run_abs), 5e-324)

        # the scalar order at a ring: the term cap, the ring rule, a total past
        # the double range, then the tail certificate
        met = np.flatnonzero(~capped & (ring_abs <= threshold))
        over = ~np.isfinite(run_abs[met])
        u_hi, u_lo = n_hi[met] - gamma_c[met], gamma_c[met] - n_lo[met]
        isl = inv_sqrt_lam[pt[met]]
        left_open = two_sided | (n_lo[met] != 0.0)
        cert = np.flatnonzero(~over & (u_hi >= isl) & (~left_open | (u_lo >= isl)))
        cells = met[cert]
        log_tail = log_pref_c[cells] + _batch_log_tail(lam_c[cells], u_hi[cert])
        opened = np.flatnonzero(left_open[cert])
        o = cells[opened]
        log_tail[opened] = _batch_logaddexp(
            log_tail[opened], log_pref_c[o] + _batch_log_tail(lam_c[o], u_lo[cert[opened]])
        )
        ok = log_tail <= _map(math.log, threshold[cells])
        certified = np.zeros(len(pt), dtype=bool)
        certified[cells[ok]] = True
        cert_log = np.zeros(len(pt))
        cert_log[cells[ok]] = log_tail[ok]

        # each point stops at its first ring that raises or certifies
        stop = capped | certified
        stop[met[over]] = True
        events = np.flatnonzero(stop)  # ring by ring, so a point's first event comes first
        stopped, first = np.unique(pt[events], return_index=True)
        first = events[first]
        good = certified[first]
        at, cells = live[stopped[good]], first[good]
        value[at], tail[at], terms[at] = (
            run_total[cells], _batch_exp_round_up(cert_log[cells]), count[cells]
        )
        back[live[stopped[~good]]] = True
        # the others carry their totals into their next block
        go_on = np.ones(live.size, dtype=bool)
        go_on[stopped] = False
        live, lam, gamma, log_pref, peak, inv_sqrt_lam, width, total, total_abs = (
            a[go_on]
            for a in (live, lam, gamma, log_pref, peak, inv_sqrt_lam, width, total, total_abs)
        )
        summed = summed[go_on] + width
    return value, tail, terms, back


def _batch_dual(lam, gamma, acc: SumAccuracy) -> tuple:
    """``_poisson_dual(lam, gamma, (0,), acc)``, one point per element.

    Every point stops at its own dual index.  Returns the arrays of
    ``_batch_direct``; ``back`` marks the dual's range limits and a value
    past the double range, where the scalar engine raises.
    """
    value, tail, terms = _report_arrays(len(lam))
    rel_tol = acc.rel_tol
    mu = _PI_SQUARED / lam
    log_pref = lam * gamma * gamma
    back = ~(mu < 1e300) | (log_pref > 2.0 * 709.0)
    live = np.flatnonzero(~back)
    lam, gamma, mu, log_pref = lam[live], gamma[live], mu[live], log_pref[live]
    r = np.sqrt(math.pi / lam)
    phase = 2.0 * math.pi * _map(math.remainder, gamma, 1.0)
    # each point's s0, bound over E, A_0 and K where it stops
    s0_at, bound_at, a_at, k_at = (np.empty(live.size) for _ in range(4))
    run = np.arange(live.size)  # the points still summing, as indices into live
    c0 = np.zeros(live.size)
    k = 0
    while run.size:
        k += 1
        mu_run = mu[run]
        decay = _map(math.exp, -mu_run * k * k)
        rd = r[run] * decay
        c0 += decay * _map(math.cos, k * phase[run])
        s0 = r[run] * (1.0 + 2.0 * c0)
        a = 1.0 / (mu_run * k)
        bound = rd * a
        stop = bound <= rel_tol * np.abs(s0)
        at = run[stop]
        s0_at[at], bound_at[at], a_at[at], k_at[at] = s0[stop], bound[stop], a[stop], k
        run, c0 = run[~stop], c0[~stop]

    high = log_pref > 709.0  # E itself overflows where E |T_0/E| may not
    pref = _map(math.exp, np.where(high, log_pref - 709.0, log_pref))
    scale = np.where(high, _EXP_709, 1.0)
    lam_gamma, err = _two_product(lam, gamma)
    carried = pref * (1.0 + (_two_product(lam_gamma, gamma)[1] + err * gamma))
    pref = np.where(log_pref > 1.0, carried, pref)
    v = 0.0 + pref * s0_at * scale
    finite = np.isfinite(v)
    back[live[~finite]] = True
    low = np.flatnonzero(bound_at < _TINY)  # the linear bound left the normal range
    bound = pref * bound_at * scale
    bound[low] = _batch_exp_round_up(
        log_pref[low] + _map(math.log, r[low]) + _map(math.log, a_at[low])
        - mu[low] * k_at[low] * k_at[low]
    )
    value[live[finite]] = v[finite]
    tail[live[finite]] = bound[finite]
    terms[live[finite]] = 2.0 * k_at[finite] + 1.0
    return value, tail, terms, back


class SumBatch(NamedTuple):
    """``_theta_batch``'s reports as arrays, one element per point.

    ``errors`` maps the index of each point whose scalar call raises to its
    ``AnyonOttoError``; such a point's value and tail bound are NaN and its
    terms 0.
    """

    values: np.ndarray
    tail_bounds: np.ndarray
    terms_used: np.ndarray
    errors: dict

    def report(self, i: int) -> SumReport:
        """Point i's SumReport; raises the point's error where its scalar call raises."""
        if i in self.errors:
            raise self.errors[i]
        return SumReport(
            float(self.values[i]), float(self.tail_bounds[i]), int(self.terms_used[i])
        )


def _batch_log(a: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """libm's log of each element of ``a`` where ``valid``, NaN elsewhere."""
    out = np.full(len(a), math.nan)
    out[valid] = _map(math.log, a[valid])
    return out


def _batch_lam(qs: np.ndarray) -> np.ndarray:
    """lam = -log(q) per point with 0 < q < 1, as ``_theta_params`` forms it; NaN elsewhere."""
    return -_batch_log(qs, (0.0 < qs) & (qs < 1.0))


def _batch_log_x(xs: np.ndarray) -> np.ndarray:
    """log(x) per point with 0 < x < inf, as ``_theta_params`` forms it; NaN elsewhere."""
    return _batch_log(xs, (xs > 0.0) & (xs != math.inf))


def _theta_batch(xs, qs, one_sided: bool, acc: SumAccuracy = DEFAULT_ACCURACY) -> SumBatch:
    """theta3 (full lattice) or partial theta (``one_sided``) at each point (xs[i], qs[i]).

    ``_theta_batch_logs`` at the points' logs; a caller that sums several
    batches on one grid forms the logs once and calls that.
    """
    xs = np.asarray(xs, dtype=float)
    qs = np.asarray(qs, dtype=float)
    return _theta_batch_logs(xs, qs, _batch_lam(qs), _batch_log_x(xs), one_sided, acc)


def _theta_batch_logs(xs, qs, lam, log_x, one_sided: bool, acc: SumAccuracy) -> SumBatch:
    """``_theta_batch`` at each point (xs[i], qs[i]), given lam = -log(q) and log(x) per point.

    ``lam`` and ``log_x`` are ``_batch_lam(qs)`` and ``_batch_log_x(xs)``:
    NaN marks a point outside theta3's domain.

    ``report(i)`` of the result is what ``theta3_report(xs[i], qs[i], acc)``
    or ``partial_theta_report`` returns, bit for bit and with the same
    ``terms_used``, or raises the ``AnyonOttoError`` that call raises.  Each
    point takes the route ``_theta_reports`` gives it: full-lattice points
    below DUAL_CROSSOVER_LAMBDA run the weight-0 Poisson dual
    (``_batch_dual``), and full-lattice points above it and one-sided points
    at or above the slow-decay rate the direct ring loop (``_batch_direct``),
    on arrays, each point stopping at its own ring.  Every other point is
    handed to the scalar function, with its warnings and errors: bad
    arguments, slow decay and the routes' own refusals.

    Bit-identity fixes the arithmetic: numpy's exp, log and square differ
    from libm's on a small share of doubles, so exp, log, log1p, cos,
    remainder and squares go through Python per element (``_map``), and only
    the IEEE-exact operations (+, -, *, /, abs, sqrt, rounding to an
    integer) run as array operations.
    """
    value, tail, terms = _report_arrays(len(xs))
    with np.errstate(all="ignore"):  # as Python floats do, overflow gives inf silently
        back = np.isnan(lam) | np.isnan(log_x)
        points = np.flatnonzero(~back)
        lam = lam[points]
        gamma = log_x[points] / (2.0 * lam)
        if one_sided:
            slow = lam < _SLOW_DECAY_BELOW
            back[points[slow]] = True
            direct = ~slow
            routes = [(direct, _batch_direct(lam[direct], gamma[direct], True, acc))]
        else:
            dual = lam < DUAL_CROSSOVER_LAMBDA
            direct = ~dual
            routes = [
                (dual, _batch_dual(lam[dual], gamma[dual], acc)),
                (direct, _batch_direct(lam[direct], gamma[direct], False, acc)),
            ]
        for on_route, (route_value, route_tail, route_terms, refused) in routes:
            at = points[on_route]
            value[at], tail[at], terms[at] = route_value, route_tail, route_terms
            back[at[refused]] = True
    errors = {}
    scalar = partial_theta_report if one_sided else theta3_report
    for i in np.flatnonzero(back).tolist():
        try:
            value[i], tail[i], terms[i] = scalar(float(xs[i]), float(qs[i]), acc)
        except AnyonOttoError as exc:
            value[i] = tail[i] = math.nan
            errors[i] = exc
    return SumBatch(value, tail, terms, errors)


def _check_gauss_args(lam: float, weight: int) -> None:
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if weight not in (0, 1, 2):
        raise DomainError(f"weight must be 0, 1 or 2, got {weight}")


def _gauss_sum(lam, gamma, c, weight, one_sided, acc) -> SumReport:
    """The oracle sums' checks, in order, then ``_lattice_sum``.

    |gamma| must stay below 2^52, as a ring flux must: past 2^53 the labels
    n near gamma lose their unit spacing as doubles, and terms repeat.  A
    term whose ``**`` overflows raises NoConvergence here, off the engine's
    per-term path.
    """
    _check_gauss_args(lam, weight)
    if not (lam < math.inf and abs(gamma) < 2.0**52 and math.isfinite(c)):
        require_finite(**{"lambda": lam}, gamma=gamma, c=c)
        raise DomainError(f"gamma must satisfy |gamma| < 2^52, got {gamma}")
    try:
        return _lattice_sum(lam, gamma, c, weight, one_sided, acc)
    except OverflowError:
        raise NoConvergence(
            f"lattice sum term exceeds the double-precision range "
            f"(lambda={lam:g}, gamma={gamma:g}, c={c:g}, weight={weight})"
        ) from None


def gauss_sum_full_report(
    lam: float,
    gamma: float,
    c: float,
    weight: int,
    acc: SumAccuracy = DEFAULT_ACCURACY,
) -> SumReport:
    """gauss_sum_full with its truncation certificate."""
    return _gauss_sum(lam, gamma, c, weight, False, acc)


def gauss_sum_full(
    lam: float,
    gamma: float,
    c: float,
    weight: int,
    acc: SumAccuracy = DEFAULT_ACCURACY,
) -> float:
    """sum over n in Z of (n-c)^weight * exp(-lam*(n-gamma)^2), by direct summation.

    This is the oracle form: the weight is applied term by term and no theta
    identity is used, so it can arbitrate the closed-form expressions built
    from theta3 and its derivatives.
    """
    return gauss_sum_full_report(lam, gamma, c, weight, acc).value


def gauss_sum_half_report(
    lam: float,
    gamma: float,
    c: float,
    weight: int,
    acc: SumAccuracy = DEFAULT_ACCURACY,
) -> SumReport:
    """gauss_sum_half with its truncation certificate."""
    return _gauss_sum(lam, gamma, c, weight, True, acc)


def gauss_sum_half(
    lam: float,
    gamma: float,
    c: float,
    weight: int,
    acc: SumAccuracy = DEFAULT_ACCURACY,
) -> float:
    """Same as gauss_sum_full but restricted to n >= 0 (oracle form)."""
    return gauss_sum_half_report(lam, gamma, c, weight, acc).value
