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
variants, ``paper-main-text`` and ``paper-appendix``, are retained behind
``formula_variant`` purely for documentation, and the table ``_FORMULAS`` is
the one place they live.  Both fail the oracle check away from special
points; the printed pair energy sum, whose first factor has decay rate
-beta pi^2/L^2 < 0, always raises DomainError.  ``rederived`` is the default
and the only variant that passes.

For the interacting pair, energies in center-of-mass/relative coordinates
split by parity (m and n both even or both odd), giving products of full- and
half-lattice sums.  The partition function is a sum of two theta3 *
partial_theta products, and the energy-weighted sum is bilinear: per parity
sector, (weighted full) x (plain half) + (plain full) x (weighted half).

Each efficiency is assembled from one factor per isochore (control value,
beta), ``_ring_isochore`` or ``_cs_isochore``, and every series in it is
summed once.  The factor holds the partition function Z and the energy sum
U(c), a function of the control value c whose spectrum weights it.  Both
come from the same series triples (T_0, T_1, T_2) at the exact (lam, gamma):

* ring: one full-lattice triple at (beta eps0, alpha);
* pair: four triples at lam = 4 beta pi^2 / L^2, namely the full lattice at
  gamma 0 and -1/2 and the half lattice at alpha/2 and (alpha - 1)/2.

No theta argument x = exp(2 lam gamma) is formed, so Z has a value wherever
its series are finite.  The partition closed forms and the weighted sums
``*_weighted_energy_sum`` read the same factor, so ``validate`` checks the Z
and U(c) that the efficiencies use.  The pair's full-lattice triples do not
depend on alpha at all.

Each per-isochore factor, each series triple, each cycle oracle's window
searches and each partition or pair energy-sum oracle's level enumeration
is obtained through ``thermo._shared``, which keeps it for the open
``thermo._sharing`` scope and computes it afresh outside one.  Those oracles
enumerate their window in label order and sum over it unsorted, so
``validate`` sorts no level set.  A CLI sweep opens one scope, so the
isochore its axis leaves alone is summed once per sweep and the alpha-free
pair triples once per temperature; ``validate`` opens one for its whole run,
so it sums each triple once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import DegenerateCycle, DomainError, NoConvergence
from .otto import OttoCycleSpec, run_cycle
from .special_functions import (
    DEFAULT_ACCURACY,
    SumAccuracy,
    _check_gauss_args,
    _theta_params,
    _theta_reports,
    gauss_sum_full,
    theta3,
)
from .spectra import CSPairSpectrum, RingAnyonSpectrum, enumerate_levels, require_pair_length
from .thermo import DEFAULT_TAIL_TOL, _boltzmann_sum, _shared, partition_function

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


def _require_partitions(*partitions: float) -> None:
    """Raise NoConvergence where a route's partition function is 0.0.

    A Z that underflowed on both routes would read a residual of 0 and
    certify nothing.
    """
    if 0.0 in partitions:
        raise NoConvergence("closed-form partition function underflows a double")


def _check_variant(variant: str) -> _Formulas:
    """The variant's ``_FORMULAS`` entry; DomainError for an unknown name."""
    if variant not in VARIANTS:
        raise DomainError(f"formula_variant must be one of {VARIANTS}, got {variant!r}")
    return _FORMULAS[variant]


def _theta_values(
    lam: float, gamma: float, one_sided: bool, acc: SumAccuracy, weights: tuple = (0, 1, 2)
) -> tuple:
    """The values of ``_theta_reports``: T_w at (lam, gamma) for each w in ``weights``."""
    return tuple(r.value for r in _theta_reports(lam, gamma, one_sided, acc, weights))


def _weighted_theta(x: float, q: float, weight: int, one_sided: bool, acc: SumAccuracy) -> float:
    """T_w at x, q after the theta3 domain checks and the Gaussian-sum weight check."""
    lam, gamma = _theta_params(x, q)
    _check_gauss_args(lam, weight)
    return _theta_values(lam, gamma, one_sided, acc, (weight,))[0]


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


def _plain(t: tuple, lam: float, gamma: float) -> float:
    """Weight-0 closed form exp(-lam gamma^2) T_0 from a series triple."""
    return math.exp(-lam * gamma * gamma) * t[0]


def _weighted(t: tuple, lam: float, gamma: float, c: float) -> float:
    """sum (n-c)^2 exp(-lam (n-gamma)^2) from the triple at (lam, gamma)."""
    t0, t1, t2 = t
    return math.exp(-lam * gamma * gamma) * (c * c * t0 - 2.0 * c * t1 + t2)


def _weighted_main(t: tuple, lam: float, gamma: float, c: float) -> float:
    """Main-text print: cross term as (c*gamma/lam) d/dgamma acting on the bare series."""
    t0, t1, t2 = t
    d_gamma = 2.0 * lam * t1
    d_lam = 2.0 * gamma * t1 - t2
    return math.exp(-lam * gamma * gamma) * (c * c * t0 + (c * gamma / lam) * d_gamma - d_lam)


def _weighted_appendix(t: tuple, lam: float, gamma: float, c: float) -> float:
    """Appendix print: coefficient (gamma-c)/lam, derivatives through an extra exp(-lam gamma^2)."""
    t0, t1, t2 = t
    pref = math.exp(-lam * gamma * gamma)
    d_gamma_pref = pref * (2.0 * lam * t1 - 2.0 * lam * gamma * t0)
    d_lam_pref = pref * (-gamma * gamma * t0 + 2.0 * gamma * t1 - t2)
    return pref * c * c * t0 + pref * ((gamma - c) / lam) * d_gamma_pref - pref * d_lam_pref


def _ring_printed(lam: float, alpha: float, acc: SumAccuracy) -> float:
    """Printed ring partition function exp(-lam alpha^2) theta3(lam alpha, q), q = exp(-lam)."""
    return math.exp(-lam * alpha * alpha) * theta3(lam * alpha, math.exp(-lam), acc)


class _Formulas(NamedTuple):
    """Where a formula variant departs from the rederived forms."""

    weighted: Callable  # (triple, lam, gamma, c) -> sum (n-c)^2 exp(-lam (n-gamma)^2)
    # (lam, alpha, acc) -> the printed ring partition function, in place of the
    # isochore's Z wherever a Z is asked for; None keeps the isochore's
    ring_partition: Callable | None
    pair_sign: float  # sign of alpha in the pair's relative-coordinate shift


_FORMULAS = {
    VARIANT_REDERIVED: _Formulas(_weighted, None, 1.0),
    VARIANT_MAIN: _Formulas(_weighted_main, _ring_printed, -1.0),
    VARIANT_APPENDIX: _Formulas(_weighted_appendix, _ring_printed, -1.0),
}


def _assemble(hot: tuple, cold: tuple, control_h: float, control_l: float, floor: float):
    """eta = 1 - [U_h(l)/Z_h - U_l(l)/Z_l] / [U_h(h)/Z_h - U_l(h)/Z_l].

    ``hot`` and ``cold`` are the isochores' factors (Z, U), with U the energy
    sum as a function of the control value whose spectrum weights it: the
    cold one (l) in the numerator, the hot one (h) in the denominator.  A Z
    that underflows to 0 raises NoConvergence, and so does an eta of NaN, the
    quotient of energy sums that overflowed.
    """
    (z_h, u_h), (z_l, u_l) = hot, cold
    _require_partitions(z_h, z_l)
    num = u_h(control_l) / z_h - u_l(control_l) / z_l
    den = u_h(control_h) / z_h - u_l(control_h) / z_l
    if abs(den) < floor:
        raise DegenerateCycle("closed-form denominator vanishes")
    eta = 1.0 - num / den
    if math.isnan(eta):
        raise NoConvergence("closed-form efficiency is NaN: its energy sums leave the double range")
    return eta


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
    value = _shared(_ring_isochore, alpha_boltz, beta, eps0, acc, variant)[1](alpha_weight)
    oracle = eps0 * gauss_sum_full(beta * eps0, alpha_boltz, alpha_weight, 2, acc)
    return _report(value, oracle, variant)


def _ring_lam(beta: float, eps0: float) -> float:
    """The ring's decay rate lam = beta eps0, after the checks of beta and eps0."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not eps0 > 0.0:
        raise DomainError(f"eps0 must be positive, got {eps0}")
    return beta * eps0


def _ring_isochore(alpha: float, beta: float, eps0: float, acc: SumAccuracy, variant: str):
    """(Z, c -> U(c)) of the ring isochore (alpha, beta), from one triple at lam = beta eps0.

    Z = exp(-lam alpha^2) T_0 and U(c) = sum_n E_n(c) exp(-beta E_n(alpha)).
    A printed variant's partition function, which needs alpha > 0, is not
    built here but only where a Z is asked for (``_FORMULAS``).
    """
    weighted = _check_variant(variant).weighted
    lam = _ring_lam(beta, eps0)
    t = _shared(_theta_values, lam, alpha, False, acc)
    return _plain(t, lam, alpha), lambda c: eps0 * weighted(t, lam, alpha, c)


def ring_partition_closed(
    alpha: float,
    beta: float,
    eps0: float = 1.0,
    tail_tol: float = DEFAULT_TAIL_TOL,
    acc: SumAccuracy = DEFAULT_ACCURACY,
    variant: str = VARIANT_REDERIVED,
) -> ClosedFormReport:
    """Ring partition function exp(-lam alpha^2) theta3(exp(2 lam alpha), exp(-lam)).

    The value is the Z of ``_ring_isochore``.  The printed variants replace
    the first theta3 argument by lam * alpha (no exponential, no factor 2)
    and fail the oracle; they also require alpha > 0 since theta3 needs a
    positive first argument.
    """
    printed = _check_variant(variant).ring_partition
    if printed is None:
        value = _shared(_ring_isochore, alpha, beta, eps0, acc, variant)[0]
    else:
        value = printed(_ring_lam(beta, eps0), alpha, acc)
    oracle = partition_function(RingAnyonSpectrum(eps0=eps0, alpha=alpha), beta, tail_tol)
    _require_partitions(value, oracle)
    return _report(value, oracle, variant)


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
    printed = _check_variant(variant).ring_partition
    if alpha_h == alpha_l:
        raise DegenerateCycle("alpha_h == alpha_l: numerator equals denominator")
    hot = _shared(_ring_isochore, alpha_h, beta_h, eps0, acc, variant)
    cold = _shared(_ring_isochore, alpha_l, beta_l, eps0, acc, variant)
    if printed is not None:
        hot = printed(beta_h * eps0, alpha_h, acc), hot[1]
        cold = printed(beta_l * eps0, alpha_l, acc), cold[1]
    return _assemble(hot, cold, alpha_h, alpha_l, _TINY * max(1.0, eps0))


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
    product, read from the isochore's factor ``_cs_isochore``.  The printed
    variants flip the sign of the relative shift, so their terms are the
    rederived ones at -alpha.
    """
    sign = _check_variant(variant).pair_sign
    return _shared(_cs_isochore, sign * alpha, beta, L, acc, VARIANT_REDERIVED)[0]


def cs_partition_closed(
    alpha: float,
    beta: float,
    L: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
    acc: SumAccuracy = DEFAULT_ACCURACY,
    variant: str = VARIANT_REDERIVED,
) -> ClosedFormReport:
    """Pair partition function from the parity-split theta product form.

    Oracle: direct truncated summation over enumerated (n1, n2) levels
    (``thermo.partition_function``).
    """
    even, odd = cs_partition_parity_terms(alpha, beta, L, acc, variant)
    value = even + odd
    oracle = partition_function(CSPairSpectrum(L=L, alpha=alpha), beta, tail_tol)
    _require_partitions(value, oracle)
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
    decay rate 4 beta pi^2 / L^2.  The printed variants (see ``_FORMULAS``)
    multiply two weighted factors, the first at decay rate -beta pi^2 / L^2 < 0,
    so they always raise DomainError; they are kept only so validation can name them.
    Oracle: direct double sum over the enumerated level set, in label order,
    shared with the pair partition oracle's; every term is positive.
    """
    (even, odd), energy_sum = _shared(_cs_isochore, alpha_boltz, beta, L, acc, variant)
    spec = CSPairSpectrum(L=L, alpha=alpha_boltz)
    _require_partitions(even + odd, partition_function(spec, beta, tail_tol))
    levels = _shared(enumerate_levels, spec, beta, tail_tol, "label")
    weights = CSPairSpectrum(L=L, alpha=alpha_weight).energies(*levels.labels.T)
    oracle = _boltzmann_sum(levels, beta, weights)
    return _report(energy_sum(alpha_weight), oracle, variant)


def _cs_isochore(alpha: float, beta: float, L: float, acc: SumAccuracy, variant: str):
    """((even, odd), c -> X(c)) of the pair isochore (alpha, beta), from four series triples.

    X(c) = sum over n1 <= n2 of E(c) exp(-beta E(alpha)).  All four triples
    are at decay rate 4 beta pi^2 / L^2: the full lattice at gamma 0 (even
    sector) and -1/2 (odd), which do not depend on alpha, and the half
    lattice at alpha/2 and (alpha - 1)/2.  Each comes through ``_shared``.
    Each sector of Z is the product of the plain full- and half-lattice
    factors that X(c) uses.
    """
    _check_variant(variant)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    require_pair_length(L)
    unit = math.pi**2 / (L * L)
    if variant != VARIANT_REDERIVED:
        # the printed assembly's first factor sums at decay rate -beta pi^2/L^2
        raise DomainError(f"series decay rate must be positive, got {-beta * unit}")
    c4 = 4.0 * beta * unit
    g_even, g_odd = alpha / 2.0, (alpha - 1.0) / 2.0
    full_even = _shared(_theta_values, c4, 0.0, False, acc)
    half_even = _shared(_theta_values, c4, g_even, True, acc)
    full_odd = _shared(_theta_values, c4, -0.5, False, acc)
    half_odd = _shared(_theta_values, c4, g_odd, True, acc)
    plain_even = _plain(full_even, c4, 0.0), _plain(half_even, c4, g_even)
    plain_odd = _plain(full_odd, c4, -0.5), _plain(half_odd, c4, g_odd)

    def energy_sum(c: float) -> float:
        even = _weighted(full_even, c4, 0.0, 0.0) * plain_even[1] + plain_even[0] * _weighted(
            half_even, c4, g_even, c / 2.0
        )
        odd = _weighted(full_odd, c4, -0.5, -0.5) * plain_odd[1] + plain_odd[0] * _weighted(
            half_odd, c4, g_odd, (c - 1.0) / 2.0
        )
        return 4.0 * unit * (even + odd)

    return (plain_even[0] * plain_even[1], plain_odd[0] * plain_odd[1]), energy_sum


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
    (even_h, odd_h), x_h = _shared(_cs_isochore, alpha2, beta_h, L, acc, variant)
    (even_l, odd_l), x_l = _shared(_cs_isochore, alpha1, beta_l, L, acc, variant)
    return _assemble((even_h + odd_h, x_h), (even_l + odd_l, x_l), alpha2, alpha1, _TINY)


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
