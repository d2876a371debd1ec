"""The ring window search against the O(K) search it replaced.

``reference_search`` evaluates every level of the 2K+1 window on each
doubling, reads the ground energy as their minimum and checks every kept
energy.  The search in ``spectra`` evaluates the ground level E(peak) and,
once, the window's two ends.  Both must keep the same labels and energies,
certify the same tail bound bit for bit, and raise the same errors.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anyon_otto import spectra
from anyon_otto.errors import AnyonOttoError, DomainError, NoConvergence
from anyon_otto.spectra import RingAnyonSpectrum, enumerate_levels, window_bounds
from anyon_otto.special_functions import _exp_round_up, _log_gauss_tail, _logaddexp


def reference_search(spec, beta, tail_tol):
    """The O(K) ring window search: (n, energies, tail) of the kept levels, label-ascending."""
    lam = beta * spec.eps0
    gamma = spec.alpha
    peak = int(round(gamma))
    g_shift = (peak - gamma) ** 2
    cap = spectra._RING_WINDOW_CAP
    K = max(3, spectra._first_half_width(lam, g_shift, 0.0, tail_tol, cap))
    while True:
        if 2 * K + 1 > cap:
            raise NoConvergence(f"ring window exceeded {cap} levels at tail_tol={tail_tol:g}")
        inv_sqrt_lam = 1.0 / math.sqrt(lam)
        ns = np.arange(peak - K, peak + K + 1)
        energies = spec.energies(ns)
        e_min = float(energies.min())
        u_hi = (peak + K) - gamma
        u_lo = gamma - (peak - K)
        if min(u_hi, u_lo) < inv_sqrt_lam:
            K *= 2
            continue
        log_tail = beta * e_min + _logaddexp(
            _log_gauss_tail(lam, u_hi, 0.0, 0), _log_gauss_tail(lam, u_lo, 0.0, 0)
        )
        tail = _exp_round_up(log_tail) * spectra._CERT_SLACK
        if tail <= tail_tol:
            return ns, spectra.require_finite_energies(energies), tail
        K *= 2


def outcome(search, *args):
    """``search(*args)``, or the type and message of the package error it raised."""
    try:
        return search(*args)
    except AnyonOttoError as exc:
        return type(exc), str(exc)


def reference_levels(spec, beta, tail_tol):
    """(labels, energies, tail bits) as bytes, in enumerate_levels' order."""
    ns, energies, tail = reference_search(spec, beta, tail_tol)
    order = np.argsort(energies, kind="stable")
    return ns[order].tobytes(), energies[order].tobytes(), float(tail).hex()


def new_levels(spec, beta, tail_tol):
    levels = enumerate_levels(spec, beta, tail_tol)
    return levels.labels.tobytes(), levels.energies.tobytes(), levels.tail_bound.hex()


def reference_bounds(spec, beta, tail_tol):
    ns = reference_search(spec, beta, tail_tol)[0]
    return ((int(ns[0]), int(ns[-1])),)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# alpha: generic, half-integer (where two labels tie for the ground level), and
# within 1,000 of the flux limit +-2^52, where the labels' spacing is one ulp.
ALPHAS = st.one_of(
    st.floats(-50.0, 50.0),
    st.integers(-100, 100).map(lambda k: k + 0.5),
    st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(0.5, 1000.0)).map(
        lambda t: t[0] * (spectra.RING_FLUX_LIMIT - t[1])
    ),
)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(
    alpha=ALPHAS,
    eps0=log_uniform(1e-3, 1e308),
    beta=log_uniform(1e-8, 1e3),
    tail_tol=log_uniform(1e-15, 0.8),
)
def test_matches_the_window_search(alpha, eps0, beta, tail_tol):
    spec = RingAnyonSpectrum(eps0=eps0, alpha=alpha)
    args = (spec, beta, tail_tol)
    with np.errstate(over="ignore"):
        expected = outcome(reference_levels, *args)
        assert outcome(new_levels, *args) == expected
        assert outcome(window_bounds, *args) == outcome(reference_bounds, *args)


def test_search_outcomes_cover_every_path():
    """Fixed draws that take the error paths and the half-integer tie."""
    cases = [
        (RingAnyonSpectrum(1e308, 0.3), 10.0, 1e-13),  # energies overflow: DomainError
        (RingAnyonSpectrum(1.0, 0.3), 1e-12, 1e-13),  # window past its cap: NoConvergence
        (RingAnyonSpectrum(1.0, 2.5), 0.5, 1e-13),  # two ground labels
        (RingAnyonSpectrum(1.0, spectra.RING_FLUX_LIMIT - 0.5), 1.0, 1e-13),
    ]
    kinds = []
    with np.errstate(over="ignore"):
        for args in cases:
            expected = outcome(reference_levels, *args)
            assert outcome(new_levels, *args) == expected
            assert outcome(window_bounds, *args) == outcome(reference_bounds, *args)
            kinds.append(expected[0] if isinstance(expected[0], type) else "levels")
    assert kinds == [DomainError, NoConvergence, "levels", "levels"]


class CountedRing(RingAnyonSpectrum):
    """A ring that counts the levels it evaluates, in ``evaluated``."""

    evaluated = [0]

    def energy(self, n):
        self.evaluated[0] += 1
        return super().energy(n)

    def energies(self, n):
        self.evaluated[0] += np.size(n)
        return super().energies(n)


def test_window_bounds_evaluates_at_most_three_levels():
    for beta in (1e3, 1.0, 1e-2, 1e-4, 1e-6, 1e-8):
        spec = CountedRing(eps0=1.0, alpha=0.3)
        CountedRing.evaluated[0] = 0
        ((lo, hi),) = window_bounds(spec, beta, 1e-13)
        assert CountedRing.evaluated[0] <= 3, (beta, hi - lo + 1)
    assert hi - lo + 1 > 100_000  # the last window is wide
