"""The pair window search against the brute-force search it replaced.

``reference_search`` evaluates every level of the (2K+1)(K+1) window and
sums the weight its energy cut drops, level by level.  The search in
``spectra`` evaluates a few labels per row walked and bounds that weight
from row tails.  Its bound is at or above the exact sum, so where the two
differ the new search can only double K once more: it must then keep what
the reference keeps at that larger K.
"""

import math

import numpy as np
import pytest

from anyon_otto import spectra
from anyon_otto.errors import NoConvergence
from anyon_otto.spectra import CSPairSpectrum, enumerate_levels, window_bounds
from anyon_otto.special_functions import _exp_round_up, _log_gauss_tail, _logaddexp


def reference_search(spec, beta, tail_tol, past=0):
    """The O(K^2) pair window search: (K, (n1, n2), energies, tail) of the kept levels.

    Only windows with K > ``past`` may stop the search, so that a larger K
    of the same doubling sequence can be compared too.
    """
    unit = math.pi**2 / spec.L**2
    lam = beta * unit
    alpha = spec.alpha
    mu_n = (max(0, int(round(alpha))) - alpha) ** 2
    cap = spectra._CS_WINDOW_CAP
    K = 3 + int(math.ceil(alpha / 2.0))
    if K <= cap:
        K = max(K, spectra._first_half_width(lam, alpha**2, 1.0, tail_tol, cap))
    while True:
        if K > cap:
            raise NoConvergence(f"pair window exceeded K={cap} at tail_tol={tail_tol:g}")
        inv_sqrt_lam = 1.0 / math.sqrt(lam)
        log_lattice = math.log(2.0 + math.sqrt(math.pi / lam))
        window = np.arange(-K, K + 1)
        n1, n2 = spectra._upper_pairs(window, window).T
        energies = spec.energies(n1, n2)
        e_min = float(energies.min())
        if (K - alpha) < inv_sqrt_lam or K < inv_sqrt_lam:
            K *= 2
            continue
        log_tail_m = math.log(2.0) + _log_gauss_tail(lam, float(K), 0.0, 0) + log_lattice
        log_tail_n = _log_gauss_tail(lam, float(K - alpha), 0.0, 0) + log_lattice
        log_tail = beta * e_min + _logaddexp(log_tail_m, log_tail_n)
        e_floor = unit * min((K + 1.0) ** 2 + mu_n, (K + 1.0 - alpha) ** 2)
        keep = energies <= e_floor
        dropped = float(np.exp(-beta * (energies[~keep] - e_min)).sum())
        tail = (_exp_round_up(log_tail) + dropped) * spectra._CERT_SLACK
        if tail <= tail_tol and K > past:
            kept = energies[keep]
            return K, (n1[keep], n2[keep]), spectra.require_finite_energies(kept), tail
        K *= 2


def seeded_specs(n, seed):
    """(L, alpha, beta, tail_tol) over the ranges the cycle and sweep commands reach."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        beta = 10.0 ** rng.uniform(-4.0, math.log10(30.0))
        L = rng.uniform(0.3, 3.0)
        kind = rng.integers(4)
        alpha = (0.0, 1.0, rng.uniform(0.0, 3.0), rng.uniform(0.0, 20.0))[kind]
        tail_tol = (1e-13, 1e-14, 1e-6, 1e-3)[rng.integers(4)]
        yield float(L), float(alpha), float(beta), tail_tol


# Specs whose row-tail bound misses tail_tol where the exact dropped weight
# meets it: the search doubles K once more there.  Keyed by draw index.
LARGER_K = {}


def bounds_of(columns):
    return tuple((int(c.min()), int(c.max())) for c in columns)


def test_seeded_specs_match_the_brute_force_search():
    larger = set()
    for index, (L, alpha, beta, tail_tol) in enumerate(seeded_specs(2000, seed=16)):
        spec = CSPairSpectrum(L, alpha)
        K, columns, energies, _ = reference_search(spec, beta, tail_tol)
        bounds = window_bounds(spec, beta, tail_tol)
        if bounds != bounds_of(columns):
            larger.add(index)
            K, columns, energies, _ = reference_search(spec, beta, tail_tol, past=K)
            assert bounds == bounds_of(columns), (index, L, alpha, beta, tail_tol)
        levels = enumerate_levels(spec, beta, tail_tol)
        order = np.argsort(energies, kind="stable")
        assert levels.labels.tobytes() == np.column_stack(columns)[order].tobytes()
        assert levels.energies.tobytes() == energies[order].tobytes()
    assert larger == set(LARGER_K)


def loose_specs(n, seed):
    """(L, alpha, beta) at large alpha and moderate decay rate, where the row tails often decide."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        L = float(rng.uniform(0.3, 3.0))
        lam = 10.0 ** rng.uniform(-2.5, -1.0)  # beta pi^2 / L^2
        yield L, float(rng.uniform(11.0, 20.0)), float(lam * L * L / math.pi**2)


def window_weights(spec, beta, K, e0):
    """Every pair n1 <= n2 of the window |n1|, |n2| <= K: energies E and exp(-beta (E - e0))."""
    n1, n2 = spectra._upper_pairs(np.arange(-K, K + 1), np.arange(-K, K + 1)).T
    energies = spec.energies(n1, n2)
    return energies, np.exp(-beta * (energies - e0))


@pytest.mark.parametrize("tail_tol", [1e-6, 1e-3])
class TestRowTailCertificate:
    """The row tails bound the weight the cut drops, and the certificate the omitted weight."""

    def test_row_tails_bound_the_dropped_weight(self, tail_tol):
        for L, alpha, beta in loose_specs(100, seed=int(-math.log10(tail_tol))):
            spec = CSPairSpectrum(L, alpha)
            K = reference_search(spec, beta, tail_tol)[0]
            unit = math.pi**2 / L**2
            mu_n = (max(0, int(round(alpha))) - alpha) ** 2
            e_floor = unit * min((K + 1.0) ** 2 + mu_n, (K + 1.0 - alpha) ** 2)
            e_min = spectra._pair_ground(spectra._search_energy(spec), alpha)
            energies, weights = window_weights(spec, beta, K, e_min)
            assert e_min == energies.min()
            exact = float(weights[energies > e_floor].sum())
            bound = spectra._row_tails(beta, unit, alpha, K, e_min, e_floor)
            assert exact <= bound * spectra._CERT_SLACK, (L, alpha, beta)

    def test_certificate_bounds_the_omitted_weight(self, tail_tol, monkeypatch):
        windows = {"_cut_weight": [], "_row_tails": []}
        for name, calls in windows.items():
            search_step = getattr(spectra, name)

            def recorded(beta, unit, alpha, K, *rest, calls=calls, search_step=search_step):
                calls.append(K)
                return search_step(beta, unit, alpha, K, *rest)

            monkeypatch.setattr(spectra, name, recorded)
        decided = 0
        for L, alpha, beta in loose_specs(60, seed=7):
            spec = CSPairSpectrum(L, alpha)
            for calls in windows.values():
                calls.clear()
            levels = enumerate_levels(spec, beta, tail_tol)
            K = windows["_cut_weight"][-1]  # the window the search kept
            if windows["_row_tails"][-1:] != [K]:
                continue  # the O(1) bound met tail_tol there
            decided += 1
            e0 = float(levels.energies[0])
            _, weights = window_weights(spec, beta, 2 * K, e0)
            z_big = math.fsum(weights)
            z_trunc = math.fsum(np.exp(-beta * (levels.energies - e0)))
            assert z_big - z_trunc <= levels.tail_bound + 5e-15 * z_big
        assert decided >= 20
