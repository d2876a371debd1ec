"""The ordering contract of level sets and the label box of the cycle table.

``enumerate_levels`` orders levels by energy, ties by label, with one stable
sort of a label-ascending window; it is checked against the three-key
``np.lexsort`` it replaced, kept as a reference.  ``otto._cycle_table`` sums
over one label box (``spectra.label_box``); the box must hold every level of
both isochores' level sets, ascend strictly by label, and give Q_in and eta
that agree with an mpmath sum over the same box.  The tie-heavy spectra are
the ones where order matters: ring alpha 0 and 0.5 (E_n = E_{-n} and
E_n = E_{1-n}) and pair alpha 0 and 1.
"""

import math

import mpmath
import numpy as np
import pytest

from anyon_otto import otto, spectra
from anyon_otto.errors import DomainError
from anyon_otto.otto import OttoCycleSpec, run_cycle
from anyon_otto.spectra import (
    CSPairSpectrum,
    RingAnyonSpectrum,
    enumerate_levels,
)

TAIL_TOL = 1e-13

SPECTRA = [
    (RingAnyonSpectrum(1.0, 0.0), (0.002, 0.5, 20.0)),
    (RingAnyonSpectrum(1.0, 0.5), (0.002, 0.5, 20.0)),
    (RingAnyonSpectrum(0.7, 0.3), (0.002, 1.0)),
    (CSPairSpectrum(1.0, 0.0), (0.002, 0.05, 2.0)),
    (CSPairSpectrum(1.0, 1.0), (0.002, 0.05, 2.0)),
    (CSPairSpectrum(2.0, 0.6), (0.01, 0.3)),
]
LEVEL_CASES = [(spec, beta) for spec, betas in SPECTRA for beta in betas]


def _case_id(case):
    spec, beta = case
    return f"{spec!r}-beta{beta:g}"


def lexsort_order(labels, energies):
    """The order the level sets had before: energy, then n (ring) or n1, n2 (pair)."""
    return np.lexsort(tuple(labels.reshape(len(labels), -1).T)[::-1] + (energies,))


def strictly_ascending(labels) -> bool:
    """Whether the labels ascend strictly: by n, or by (n1, n2) lexicographically."""
    if labels.ndim == 1:
        return bool(np.all(np.diff(labels) > 0))
    n1, n2 = labels[:-1].T, labels[1:].T
    return bool(np.all((n1[0] < n2[0]) | ((n1[0] == n2[0]) & (n1[1] < n2[1]))))


@pytest.mark.parametrize("case", LEVEL_CASES, ids=_case_id)
class TestLevelOrder:
    def test_order_equals_lexsort_reference(self, case):
        spec, beta = case
        levels = enumerate_levels(spec, beta, TAIL_TOL)
        n = len(levels.labels)
        assert np.array_equal(lexsort_order(levels.labels, levels.energies), np.arange(n))
        # the reference does not depend on the order it is handed the levels in
        shuffle = np.random.default_rng(7).permutation(n)
        order = lexsort_order(levels.labels[shuffle], levels.energies[shuffle])
        assert np.array_equal(levels.labels[shuffle][order], levels.labels)
        assert np.array_equal(levels.energies[shuffle][order], levels.energies)

    def test_window_is_label_ascending_before_the_sort(self, case, monkeypatch):
        spec, beta = case
        seen = []
        sorted_level_set = spectra._sorted_level_set

        def record(labels, energies, tail_bound, beta):
            seen.append(labels.copy())
            return sorted_level_set(labels, energies, tail_bound, beta)

        monkeypatch.setattr(spectra, "_sorted_level_set", record)
        enumerate_levels(spec, beta, TAIL_TOL)
        (labels,) = seen
        assert strictly_ascending(labels)


CYCLES = [
    OttoCycleSpec.ring_cycle(0.0, 0.5, 0.002, 0.01),
    OttoCycleSpec.ring_cycle(0.5, 0.0, 0.5, 20.0),
    OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0),
    OttoCycleSpec.cs_coupling_cycle(0.0, 1.0, 0.002, 0.01),
    OttoCycleSpec.cs_coupling_cycle(1.0, 0.0, 0.05, 2.0),
    OttoCycleSpec.cs_coupling_cycle(0.0, 0.5, 0.05, 0.1, length=3.0),
    OttoCycleSpec.cs_volume_cycle(2.0, 1.0, 0.0, 0.01, 0.1),
    OttoCycleSpec.cs_volume_cycle(1.5, 1.0, 1.0, 0.002, 0.05),
]


# The cycle table's own specs: moderate and high temperature for each medium.
TABLE_CYCLES = [
    OttoCycleSpec.ring_cycle(0.1, 0.4, 2e-5, 1e-4),
    OttoCycleSpec.cs_volume_cycle(1.0, 0.5, 0.5, 0.05, 0.3),
    OttoCycleSpec.cs_volume_cycle(1.0, 0.6, 0.3, 3e-4, 1e-3),
    OttoCycleSpec.cs_coupling_cycle(0.0, 1.0, 0.05, 0.1),
    OttoCycleSpec.cs_coupling_cycle(0.2, 0.7, 1e-3, 5e-3),
]
BOX_CYCLES = CYCLES + TABLE_CYCLES


def _cycle_id(spec):
    return f"{spec.medium}-{spec.control_hot:g}-{spec.control_cold:g}-{spec.beta_h:g}"


def label_set(labels) -> set:
    return set(map(tuple, labels.reshape(len(labels), -1).tolist()))


@pytest.mark.parametrize("spec", BOX_CYCLES, ids=_cycle_id)
def test_box_holds_both_level_sets(spec):
    box = label_set(otto._cycle_table(spec)[0])
    isochores = ((spec.spectrum_hot(), spec.beta_h), (spec.spectrum_cold(), spec.beta_l))
    for medium_spec, beta in isochores:
        assert label_set(enumerate_levels(medium_spec, beta, spec.tail_tol).labels) <= box


@pytest.mark.parametrize("spec", BOX_CYCLES, ids=_cycle_id)
def test_box_labels_strictly_ascend(spec):
    labels = otto._cycle_table(spec)[0]
    assert labels.dtype == np.int64
    assert strictly_ascending(labels)


def mpmath_energies(spec, control, labels):
    """Exact level energies of the cycle's spectrum at ``control`` on ``labels``."""
    if spec.medium == "ring":
        eps0, alpha = mpmath.mpf(spec.eps0), mpmath.mpf(control)
        return [eps0 * (int(n) - alpha) ** 2 for n in labels.tolist()]
    if spec.medium == "cs-volume":
        length, alpha = control, spec.cs_alpha
    else:
        length, alpha = spec.cs_length, control
    unit, alpha = mpmath.pi**2 / mpmath.mpf(length) ** 2, mpmath.mpf(alpha)
    return [
        unit * alpha**2 + 2 * unit * (n1 * n1 + n2 * n2 + alpha * (n1 - n2))
        for n1, n2 in labels.tolist()
    ]


def mpmath_populations(energies, beta):
    e0 = min(energies)
    weights = [mpmath.exp(-mpmath.mpf(beta) * (e - e0)) for e in energies]
    z = mpmath.fsum(weights)
    return [w / z for w in weights]


@pytest.mark.parametrize("spec", BOX_CYCLES, ids=_cycle_id)
def test_box_sums_match_mpmath(spec):
    report = run_cycle(spec)
    with mpmath.workdps(30):
        e_hot = mpmath_energies(spec, spec.control_hot, report.labels)
        e_cold = mpmath_energies(spec, spec.control_cold, report.labels)
        p_b = mpmath_populations(e_hot, spec.beta_h)
        p_a = mpmath_populations(e_cold, spec.beta_l)
        dp = [b - a for b, a in zip(p_b, p_a)]
        q_in = mpmath.fsum(e * d for e, d in zip(e_hot, dp))
        eta = 1 - mpmath.fsum(e * d for e, d in zip(e_cold, dp)) / q_in
        # the pinned cycle-identity tolerance of test_otto
        assert abs((report.q_in - q_in) / q_in) < 1e-10
        assert abs((report.efficiency - eta) / eta) < 1e-10


def test_disjoint_ring_windows_stay_apart():
    # alpha 0 and 1e6 keep far-apart label intervals; the box must not span the gap
    spec = OttoCycleSpec.ring_cycle(0.0, 1e6, 10.0, 20.0)
    labels = otto._cycle_table(spec)[0]
    levels_b = enumerate_levels(spec.spectrum_hot(), spec.beta_h, spec.tail_tol)
    levels_a = enumerate_levels(spec.spectrum_cold(), spec.beta_l, spec.tail_tol)
    assert len(labels) <= len(levels_b.labels) + len(levels_a.labels)
    assert label_set(labels) == label_set(levels_b.labels) | label_set(levels_a.labels)
    assert strictly_ascending(labels)


@pytest.mark.parametrize(
    "medium_spec, labels",
    [
        (RingAnyonSpectrum(eps0=1e308, alpha=0.0), np.array([0, 10])),
        (CSPairSpectrum(L=1e-153, alpha=0.5), np.array([[0, 0], [0, 10]])),
    ],
    ids=["ring", "pair"],
)
def test_non_finite_box_energies_are_domain_errors(medium_spec, labels):
    message = r"^level energies leave the double range \(largest inf\)$"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError, match=message):
        otto._labelwise(
            medium_spec, 1.0, tuple(labels.reshape(len(labels), -1).T), *np.empty((2, len(labels)))
        )
