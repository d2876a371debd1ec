"""The printed-formula table against the per-variant branches it replaced.

``closed_form._FORMULAS`` declares every place a printed variant departs from
the rederived forms.  The references below are the branches that used to sit
inside each closed form, one arm per variant.  The table must give the same
bits, the same error types and the same messages, including at alpha = +-0.0
where only the sign of a zero tells the variants' arguments apart.
"""

import math
import random
import warnings

import pytest

from anyon_otto import closed_form as cf
from anyon_otto.errors import DomainError, NoConvergence
from anyon_otto.spectra import RingAnyonSpectrum, require_pair_length
from anyon_otto.special_functions import SumAccuracy, theta3
from anyon_otto.thermo import partition_function

VARIANTS = (cf.VARIANT_REDERIVED, cf.VARIANT_MAIN, cf.VARIANT_APPENDIX)
ACC = SumAccuracy()


# ---------------------------------------------------------------------------
# references: one arm per variant
# ---------------------------------------------------------------------------


def ref_weighted(t, lam, gamma, c, variant):
    t0, t1, t2 = t
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


def plain(lam, gamma, one_sided, acc):
    """exp(-lam gamma^2) T_0, with T_0 summed at the exact (lam, gamma)."""
    return math.exp(-lam * gamma * gamma) * cf._theta_values(lam, gamma, one_sided, acc, (0,))[0]


def ref_ring_partition_value(alpha, beta, eps0, acc, variant):
    cf._check_variant(variant)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    lam = beta * eps0
    if variant == cf.VARIANT_REDERIVED:
        value = plain(lam, alpha, False, acc)
    else:
        value = math.exp(-lam * alpha * alpha) * theta3(lam * alpha, math.exp(-lam), acc)
    # ring_partition_closed refuses a Z that underflowed on either route
    if value == 0.0 or partition_function(RingAnyonSpectrum(eps0, alpha), beta) == 0.0:
        raise NoConvergence("closed-form partition function underflows a double")
    return value


def ref_parity_terms(alpha, beta, L, acc, variant):
    cf._check_variant(variant)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    require_pair_length(L)
    c4 = 4.0 * beta * (math.pi**2 / (L * L))
    # the printed variants flip the sign of the relative shift
    shift = alpha if variant == cf.VARIANT_REDERIVED else -alpha
    even = plain(c4, 0.0, False, acc) * plain(c4, shift / 2.0, True, acc)
    odd = plain(c4, -0.5, False, acc) * plain(c4, (shift - 1.0) / 2.0, True, acc)
    return even, odd


def ring_partition_value(alpha, beta, eps0, acc, variant):
    return cf.ring_partition_closed(alpha, beta, eps0, acc=acc, variant=variant).value


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def outcome(f, *args):
    """The exact bits of f(*args) (a float or a tuple of them), or its error type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            value = f(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc).__name__, str(exc))
    values = value if isinstance(value, tuple) else (value,)
    return ("value",) + tuple(float(v).hex() for v in values)


def log_uniform(rng, lo, hi):
    return lo * (hi / lo) ** rng.random()


def control(rng):
    """A control value: one draw in four is +0.0 or -0.0, one in eight +-1.0."""
    u = rng.random()
    if u < 0.25:
        return rng.choice((0.0, -0.0))
    if u < 0.375:
        return rng.choice((1.0, -1.0))
    return rng.uniform(-3.0, 3.0)


def draws(seed, n):
    """(alpha, beta, scale) with beta spanning 1e-4 .. 1e3; one beta in twenty is not positive."""
    rng = random.Random(seed)
    for _ in range(n):
        beta = log_uniform(rng, 1e-4, 1e3) if rng.random() < 0.95 else rng.choice((0.0, -1.0))
        yield control(rng), beta, log_uniform(rng, 0.5, 3.0)


DRAWS = list(draws(11, 300))


def test_draws_cover_signed_zeros_and_errors():
    alphas = [a for a, _, _ in DRAWS]
    assert any(a == 0.0 and math.copysign(1.0, a) < 0 for a in alphas)
    assert any(a == 0.0 and math.copysign(1.0, a) > 0 for a in alphas)
    for variant in VARIANTS:
        kinds = {outcome(ring_partition_value, *d[:2], 1.0, ACC, variant)[0] for d in DRAWS}
        assert kinds == {"value", "error"}


@pytest.mark.parametrize("variant", VARIANTS)
def test_ring_partition_value(variant):
    for alpha, beta, eps0 in DRAWS:
        args = (alpha, beta, eps0, ACC, variant)
        got = outcome(ring_partition_value, *args)
        assert got == outcome(ref_ring_partition_value, *args), args


@pytest.mark.parametrize("variant", VARIANTS)
def test_cs_partition_parity_terms(variant):
    values = 0
    for alpha, beta, L in DRAWS:
        args = (alpha, beta, L, ACC, variant)
        got = outcome(cf.cs_partition_parity_terms, *args)
        assert got == outcome(ref_parity_terms, *args), args
        values += got[0] == "value"
    assert values > len(DRAWS) // 2


@pytest.mark.parametrize("variant", VARIANTS)
def test_weighted(variant):
    rng = random.Random(12)
    weighted = cf._check_variant(variant).weighted
    for alpha, beta, _ in DRAWS:
        if not beta > 0.0:
            continue
        t = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        args = (t, beta, alpha, control(rng))
        assert outcome(weighted, *args) == outcome(ref_weighted, *args, variant), args


def test_unknown_variant_message():
    with pytest.raises(DomainError, match=r"formula_variant must be one of .*got 'paper'"):
        cf._check_variant("paper")
