"""Theta-function closed forms, each validated against a summation oracle.

Every quantity here has two independent evaluation routes:

* a closed form assembled from theta3 / partial_theta and their term-wise
  derivative series, and
* a brute-force route (direct lattice summation or the full cycle runner)
  that never touches a theta identity.

Every public ``*_closed`` / ``*_sum`` function computes both and ships them
together in a ClosedFormReport with their relative residual, so the
equivalence is certified point by point.  The efficiencies also come as
oracle-free value functions (``ring_efficiency_value``,
``cs_efficiency_value``) for a caller that already holds the oracle: the CLI
runs the cycle once per point and measures the closed-form value against that
same report, so the oracle is computed once per point, never skipped.

The central identity: with x = exp(2 lam gamma), q = exp(-lam) and the
series T_w = sum n^w q^(n^2) x^n (full lattice or n >= 0),

    sum (n-c)^2 exp(-lam (n-gamma)^2)
        = exp(-lam gamma^2) [ c^2 T_0 - 2 c T_1 + T_2 ],

i.e. the cross term carries the coefficient -2c.  Two previously printed
variants of this identity are retained behind ``formula_variant`` purely for
documentation: ``paper-main-text`` pairs the cross term with c*gamma/lam and
``paper-appendix`` pairs it with (gamma-c)/lam but differentiates through an
extra Gaussian prefactor.  Both fail the oracle check away from special
points; ``rederived`` is the default and the only variant that passes.

For the interacting pair, energies in center-of-mass/relative coordinates
split by parity (m and n both even or both odd), giving products of full- and
half-lattice sums.  The partition function is a sum of two theta3 *
partial_theta products, and the energy-weighted sum is bilinear: per parity
sector, (weighted full) x (plain half) + (plain full) x (weighted half).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCycle, DomainError, NoConvergence
from .otto import OttoCycleSpec, run_cycle
from .special_functions import (
    DEFAULT_ACCURACY,
    SumAccuracy,
    _check_gauss_args,
    _theta_params,
    _theta_series,
    gauss_sum_full,
    partial_theta,
    theta3,
)
from .spectra import CSPairSpectrum, RingAnyonSpectrum, enumerate_levels
from .thermo import DEFAULT_TAIL_TOL, partition_function

__all__ = [
    "VARIANTS",
    "ClosedFormReport",
    "theta3_weighted",
    "partial_theta_weighted",
    "ring_weighted_energy_sum",
    "ring_partition_closed",
    "ring_efficiency_value",
    "ring_efficiency_closed",
    "cs_partition_closed",
    "cs_partition_parity_terms",
    "cs_weighted_energy_sum",
    "cs_efficiency_value",
    "cs_efficiency_closed",
    "relative_residual",
]

VARIANT_REDERIVED = "rederived"
VARIANT_MAIN = "paper-main-text"
VARIANT_APPENDIX = "paper-appendix"
VARIANTS = (VARIANT_REDERIVED, VARIANT_MAIN, VARIANT_APPENDIX)

_TINY = 1e-300


@dataclass(frozen=True)
class ClosedFormReport:
    """Closed-form value, oracle value, and their relative residual."""

    value: float
    oracle_value: float
    rel_residual: float
    formula_variant: str


def relative_residual(value: float, oracle: float) -> float:
    """|value - oracle| / |oracle|, with |oracle| floored at 1e-300."""
    return float(abs(value - oracle) / max(abs(oracle), _TINY))


def _report(value: float, oracle: float, variant: str) -> ClosedFormReport:
    return ClosedFormReport(
        value=float(value),
        oracle_value=float(oracle),
        rel_residual=relative_residual(value, oracle),
        formula_variant=variant,
    )


def _theta_arg(exponent: float) -> float:
    """Theta-series argument exp(exponent); NoConvergence where it overflows a double."""
    try:
        return math.exp(exponent)
    except OverflowError:
        raise NoConvergence(
            f"theta argument exceeds the double-precision range (exponent {exponent:.1f})"
        ) from None


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise DomainError(f"formula_variant must be one of {VARIANTS}, got {variant!r}")


def _series(lam: float, gamma: float, weight: int, one_sided: bool, acc: SumAccuracy) -> float:
    """T_w = sum n^w q^(n^2) x^n at x = exp(2 lam gamma), q = exp(-lam)."""
    if not lam > 0.0:
        raise DomainError(f"series decay rate must be positive, got {lam}")
    return _theta_series(lam, gamma, weight, one_sided, acc).value


def _weighted_theta(x: float, q: float, weight: int, one_sided: bool, acc: SumAccuracy) -> float:
    """T_w at x, q after the theta3 domain checks and the Gaussian-sum weight check."""
    lam, gamma = _theta_params(x, q)
    _check_gauss_args(lam, weight)
    return _series(lam, gamma, weight, one_sided, acc)


def theta3_weighted(x: float, q: float, weight: int, acc: SumAccuracy = DEFAULT_ACCURACY) -> float:
    """sum_{n in Z} n^weight q^(n^2) x^n: theta3 and its term-wise x/q derivatives.

    weight 1 equals x d(theta3)/dx and weight 2 equals q d(theta3)/dq.
    """
    return _weighted_theta(x, q, weight, False, acc)


def partial_theta_weighted(
    x: float, q: float, weight: int, acc: SumAccuracy = DEFAULT_ACCURACY
) -> float:
    """One-sided analogue of theta3_weighted: sum over n >= 0."""
    return _weighted_theta(x, q, weight, True, acc)


def _plain_closed(lam: float, gamma: float, one_sided: bool, acc: SumAccuracy) -> float:
    """Weight-0 closed form exp(-lam gamma^2) * theta-series."""
    return math.exp(-lam * gamma * gamma) * _series(lam, gamma, 0, one_sided, acc)


def _weighted_closed(
    lam: float,
    gamma: float,
    c: float,
    one_sided: bool,
    variant: str,
    acc: SumAccuracy,
) -> float:
    """Closed form for sum (n-c)^2 exp(-lam (n-gamma)^2), per formula variant."""
    t0 = _series(lam, gamma, 0, one_sided, acc)
    t1 = _series(lam, gamma, 1, one_sided, acc)
    t2 = _series(lam, gamma, 2, one_sided, acc)
    pref = math.exp(-lam * gamma * gamma)
    if variant == VARIANT_REDERIVED:
        return pref * (c * c * t0 - 2.0 * c * t1 + t2)
    if variant == VARIANT_MAIN:
        # cross term printed as (c*gamma/lam) d/dgamma acting on the bare series
        d_gamma = 2.0 * lam * t1
        d_lam = 2.0 * gamma * t1 - t2
        return pref * (c * c * t0 + (c * gamma / lam) * d_gamma - d_lam)
    # appendix print: coefficient (gamma-c)/lam, derivatives taken through an
    # extra exp(-lam gamma^2) prefactor
    d_gamma_pref = pref * (2.0 * lam * t1 - 2.0 * lam * gamma * t0)
    d_lam_pref = pref * (-gamma * gamma * t0 + 2.0 * gamma * t1 - t2)
    return (
        pref * c * c * t0
        + pref * ((gamma - c) / lam) * d_gamma_pref
        - pref * d_lam_pref
    )


# ---------------------------------------------------------------------------
# Flux-ring quantities
# ---------------------------------------------------------------------------


def ring_weighted_energy_sum(
    alpha_weight: float,
    alpha_boltz: float,
    beta: float,
    eps0: float = 1.0,
    acc: SumAccuracy = DEFAULT_ACCURACY,
    variant: str = VARIANT_REDERIVED,
) -> ClosedFormReport:
    """sum_n E_n(alpha_weight) exp(-beta E_n(alpha_boltz)) for ring levels.

    Closed form from the theta derivative series at lam = beta * eps0,
    gamma = alpha_boltz, c = alpha_weight; oracle by direct weighted
    summation (gauss_sum_full, weight 2).
    """
    value = _ring_weighted_value(alpha_weight, alpha_boltz, beta, eps0, acc, variant)
    oracle = eps0 * gauss_sum_full(beta * eps0, alpha_boltz, alpha_weight, 2, acc)
    return _report(value, oracle, variant)


def _ring_weighted_value(
    alpha_weight: float,
    alpha_boltz: float,
    beta: float,
    eps0: float,
    acc: SumAccuracy,
    variant: str,
) -> float:
    _check_variant(variant)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not eps0 > 0.0:
        raise DomainError(f"eps0 must be positive, got {eps0}")
    return eps0 * _weighted_closed(beta * eps0, alpha_boltz, alpha_weight, False, variant, acc)


def ring_partition_closed(
    alpha: float,
    beta: float,
    eps0: float = 1.0,
    tail_tol: float = DEFAULT_TAIL_TOL,
    acc: SumAccuracy = DEFAULT_ACCURACY,
    variant: str = VARIANT_REDERIVED,
) -> ClosedFormReport:
    """Ring partition function exp(-lam alpha^2) theta3(exp(2 lam alpha), exp(-lam)).

    The printed variants replace the first theta3 argument by lam * alpha
    (no exponential, no factor 2) and fail the oracle; they also require
    alpha > 0 since theta3 needs a positive first argument.
    """
    value = _ring_partition_value(alpha, beta, eps0, acc, variant)
    oracle = partition_function(RingAnyonSpectrum(eps0=eps0, alpha=alpha), beta, tail_tol)
    return _report(value, oracle, variant)


def _ring_partition_value(
    alpha: float, beta: float, eps0: float, acc: SumAccuracy, variant: str
) -> float:
    _check_variant(variant)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    lam = beta * eps0
    q = math.exp(-lam)
    if variant == VARIANT_REDERIVED:
        return math.exp(-lam * alpha * alpha) * theta3(_theta_arg(2.0 * lam * alpha), q, acc)
    return math.exp(-lam * alpha * alpha) * theta3(lam * alpha, q, acc)


def ring_efficiency_value(
    alpha_h: float,
    alpha_l: float,
    beta_h: float,
    beta_l: float,
    eps0: float = 1.0,
    acc: SumAccuracy = DEFAULT_ACCURACY,
    variant: str = VARIANT_REDERIVED,
) -> float:
    """Ring-engine efficiency from theta closed forms alone (no oracle).

    eta = 1 - [U(l,h)/Z_h - U(l,l)/Z_l] / [U(h,h)/Z_h - U(h,l)/Z_l] with
    U(k, j) the energy sum weighted by the spectrum at alpha_k and Boltzmann
    factors of the spectrum at alpha_j, taken at that reservoir's beta.
    """
    _check_variant(variant)
    if alpha_h == alpha_l:
        raise DegenerateCycle("alpha_h == alpha_l: numerator equals denominator")

    def u(aw: float, ab: float, beta: float) -> float:
        return _ring_weighted_value(aw, ab, beta, eps0, acc, variant)

    z_h = _ring_partition_value(alpha_h, beta_h, eps0, acc, variant)
    z_l = _ring_partition_value(alpha_l, beta_l, eps0, acc, variant)
    num = u(alpha_l, alpha_h, beta_h) / z_h - u(alpha_l, alpha_l, beta_l) / z_l
    den = u(alpha_h, alpha_h, beta_h) / z_h - u(alpha_h, alpha_l, beta_l) / z_l
    if abs(den) < _TINY * max(1.0, eps0):
        raise DegenerateCycle("closed-form denominator vanishes")
    return 1.0 - num / den


def ring_efficiency_closed(
    alpha_h: float,
    alpha_l: float,
    beta_h: float,
    beta_l: float,
    eps0: float = 1.0,
    tail_tol: float = DEFAULT_TAIL_TOL,
    acc: SumAccuracy = DEFAULT_ACCURACY,
    variant: str = VARIANT_REDERIVED,
) -> ClosedFormReport:
    """``ring_efficiency_value`` checked against its oracle, run_cycle."""
    value = ring_efficiency_value(alpha_h, alpha_l, beta_h, beta_l, eps0, acc, variant)
    oracle = run_cycle(
        OttoCycleSpec.ring_cycle(alpha_h, alpha_l, beta_h, beta_l, eps0, tail_tol)
    ).efficiency
    return _report(value, oracle, variant)


# ---------------------------------------------------------------------------
# Interacting-pair quantities
# ---------------------------------------------------------------------------


def cs_partition_parity_terms(
    alpha: float,
    beta: float,
    L: float,
    acc: SumAccuracy = DEFAULT_ACCURACY,
    variant: str = VARIANT_REDERIVED,
) -> tuple:
    """(even, odd) parity-sector terms of the pair partition function.

    Even sector: m = n1+n2 and n = n2-n1 both even; odd sector: both odd.
    Each term is a theta3 (center-of-mass) times partial_theta (relative)
    product.
    """
    _check_variant(variant)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not L > 0.0:
        raise DomainError(f"L must be positive, got {L}")
    c = beta * math.pi**2 / (L * L)
    q4 = math.exp(-4.0 * c)
    if variant == VARIANT_REDERIVED:
        even = math.exp(-c * alpha * alpha) * theta3(1.0, q4, acc) * partial_theta(
            _theta_arg(4.0 * c * alpha), q4, acc
        )
        odd = (
            math.exp(-c * (1.0 + (1.0 - alpha) ** 2))
            * theta3(q4, q4, acc)
            * partial_theta(_theta_arg(-4.0 * c * (1.0 - alpha)), q4, acc)
        )
    else:
        # printed form: relative-coordinate shift attached with the opposite sign
        even = math.exp(-c * alpha * alpha) * theta3(1.0, q4, acc) * partial_theta(
            _theta_arg(-4.0 * c * alpha), q4, acc
        )
        odd = (
            math.exp(-c * (1.0 + (1.0 + alpha) ** 2))
            * theta3(q4, q4, acc)
            * partial_theta(_theta_arg(-4.0 * c * (1.0 + alpha)), q4, acc)
        )
    return even, odd


def cs_partition_closed(
    alpha: float,
    beta: float,
    L: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
    acc: SumAccuracy = DEFAULT_ACCURACY,
    variant: str = VARIANT_REDERIVED,
) -> ClosedFormReport:
    """Pair partition function from the parity-split theta product form.

    Oracle: direct truncated summation over enumerated (n1, n2) levels.
    """
    even, odd = cs_partition_parity_terms(alpha, beta, L, acc, variant)
    value = even + odd
    oracle = partition_function(CSPairSpectrum(L=L, alpha=alpha), beta, tail_tol)
    return _report(value, oracle, variant)


def cs_weighted_energy_sum(
    alpha_weight: float,
    alpha_boltz: float,
    beta: float,
    L: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
    acc: SumAccuracy = DEFAULT_ACCURACY,
    variant: str = VARIANT_REDERIVED,
) -> ClosedFormReport:
    """sum over n1 <= n2 of E(alpha_weight) exp(-beta E(alpha_boltz)).

    Rederived closed form: per parity sector, the energy weight splits across
    the two lattice factors, giving (4 pi^2 / L^2) times
    (weighted full) x (plain half) + (plain full) x (weighted half), all at
    decay rate 4 beta pi^2 / L^2.  The printed variant multiplies two
    weighted factors and carries non-positive decay rates, so it raises
    DomainError; it is kept only so the validation suite can name it.
    Oracle: direct double sum over the enumerated level set.
    """
    value = _cs_weighted_value(alpha_weight, alpha_boltz, beta, L, acc, variant)
    levels = enumerate_levels(CSPairSpectrum(L=L, alpha=alpha_boltz), beta, tail_tol)
    weights = CSPairSpectrum(L=L, alpha=alpha_weight).energies(*levels.labels.T)
    oracle = float((weights * np.exp(-beta * levels.energies)).sum())
    return _report(value, oracle, variant)


def _cs_weighted_value(
    alpha_weight: float,
    alpha_boltz: float,
    beta: float,
    L: float,
    acc: SumAccuracy,
    variant: str,
) -> float:
    _check_variant(variant)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not L > 0.0:
        raise DomainError(f"L must be positive, got {L}")
    unit = math.pi**2 / (L * L)
    c4 = 4.0 * beta * unit
    aw = alpha_weight
    ab = alpha_boltz
    if variant == VARIANT_REDERIVED:
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
    # printed assembly: products of two weight-2 factors with decay rates
    # -beta pi^2/L^2 and -4 beta pi^2/L^2 (non-positive; cannot converge)
    chi1_even = _weighted_closed(-beta * unit, 0.0, 0.0, False, variant, acc)
    chi2_even = _weighted_closed(-c4, ab / 2.0, aw / 2.0, True, variant, acc)
    chi1_odd = _weighted_closed(-c4, -0.5, -0.5, False, variant, acc)
    chi2_odd = _weighted_closed(-c4, (ab + 1.0) / 2.0, (aw + 1.0) / 2.0, True, variant, acc)
    return 4.0 * unit * (4.0 * chi1_even * chi2_even) + unit * (4.0 * chi1_odd * chi2_odd)


def cs_efficiency_value(
    alpha1: float,
    alpha2: float,
    beta_h: float,
    beta_l: float,
    L: float = 1.0,
    acc: SumAccuracy = DEFAULT_ACCURACY,
    variant: str = VARIANT_REDERIVED,
) -> float:
    """Variable-coupling pair-engine efficiency from the theta closed forms alone.

    Heat intake happens at coupling alpha2, rejection at alpha1, so with
    X(w, b, beta) = sum E(w) exp(-beta E(b)) and Z(b, beta):

        eta = 1 - [X(a1,a2,bh)/Z(a2,bh) - X(a1,a1,bl)/Z(a1,bl)]
                / [X(a2,a2,bh)/Z(a2,bh) - X(a2,a1,bl)/Z(a1,bl)]

    (the alpha1 weight in the numerator, alpha2 in the denominator).
    """
    _check_variant(variant)
    if alpha1 == alpha2:
        raise DegenerateCycle("alpha1 == alpha2: numerator equals denominator")

    def x(aw: float, ab: float, beta: float) -> float:
        return _cs_weighted_value(aw, ab, beta, L, acc, variant)

    def z(alpha: float, beta: float) -> float:
        even, odd = cs_partition_parity_terms(alpha, beta, L, acc, variant)
        return even + odd

    z_h = z(alpha2, beta_h)
    z_l = z(alpha1, beta_l)
    num = x(alpha1, alpha2, beta_h) / z_h - x(alpha1, alpha1, beta_l) / z_l
    den = x(alpha2, alpha2, beta_h) / z_h - x(alpha2, alpha1, beta_l) / z_l
    if abs(den) < _TINY:
        raise DegenerateCycle("closed-form denominator vanishes")
    return 1.0 - num / den


def cs_efficiency_closed(
    alpha1: float,
    alpha2: float,
    beta_h: float,
    beta_l: float,
    L: float = 1.0,
    tail_tol: float = DEFAULT_TAIL_TOL,
    acc: SumAccuracy = DEFAULT_ACCURACY,
    variant: str = VARIANT_REDERIVED,
) -> ClosedFormReport:
    """``cs_efficiency_value`` checked against its oracle, run_cycle on cs-coupling."""
    value = cs_efficiency_value(alpha1, alpha2, beta_h, beta_l, L, acc, variant)
    oracle = run_cycle(
        OttoCycleSpec.cs_coupling_cycle(alpha1, alpha2, beta_h, beta_l, L, tail_tol)
    ).efficiency
    return _report(value, oracle, variant)
