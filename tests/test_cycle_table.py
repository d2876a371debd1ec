"""The cycle table's (4, N) block against the energies and populations it replaced.

``otto._cycle_table`` fills E_hot, E_cold, P_B and P_A in place, as the rows
of one float64 block, from label columns it converts to float once.  Each row
must equal, bit for bit and signed zeros included, what the allocating path
gives: ``spec.energies`` on the ``label_box`` columns, then
``thermo.boltzmann``; and both must equal the expressions the spectra and
``boltzmann`` evaluated before they could write into a given row, kept here
as the reference.  A tracemalloc guard holds the table's peak memory per
level on the CI's high-temperature pair cycle.
"""

import math
import tracemalloc

import numpy as np
import pytest

from anyon_otto import otto
from anyon_otto.otto import OttoCycleSpec, run_cycle
from anyon_otto.spectra import RingAnyonSpectrum, label_box, window_bounds
from anyon_otto.thermo import boltzmann


def reference_energies(spectrum, columns):
    """The energies as the spectra evaluated them, one temporary per operation."""
    if isinstance(spectrum, RingAnyonSpectrum):
        (n,) = columns
        return spectrum.eps0 * (np.asarray(n, dtype=float) - spectrum.alpha) ** 2
    n1 = np.asarray(columns[0], dtype=float)
    n2 = np.asarray(columns[1], dtype=float)
    unit = math.pi**2 / spectrum.L**2
    alpha = spectrum.alpha
    return unit * alpha**2 + 2.0 * unit * (n1 * n1 + n2 * n2 + alpha * (n1 - n2))


def reference_populations(energies, beta):
    """The ground-shifted Gibbs populations as ``boltzmann`` formed them into a new array."""
    weights = energies - energies.min()
    weights *= -beta
    np.exp(weights, out=weights)
    weights /= float(weights.sum())
    return weights


def same_bits(a, b):
    return (
        a.dtype == b.dtype == np.float64
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def seeded_specs(seed, n):
    """n cycles of each medium at moderate temperature, from one numpy seed."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(n):
        beta_h = log_uniform(rng, 1e-3, 5.0)
        beta_l = beta_h * log_uniform(rng, 1.0, 50.0)
        specs.append(
            OttoCycleSpec.ring_cycle(
                float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), beta_h, beta_l,
                eps0=log_uniform(rng, 0.1, 10.0),
            )
        )
        beta_h = log_uniform(rng, 1e-2, 2.0)
        beta_l = beta_h * log_uniform(rng, 1.0, 50.0)
        specs.append(
            OttoCycleSpec.cs_coupling_cycle(
                float(rng.uniform(0, 3)), float(rng.uniform(0, 3)), beta_h, beta_l,
                length=float(rng.uniform(0.5, 2.0)),
            )
        )
        l1 = float(rng.uniform(1.0, 2.0))
        specs.append(
            OttoCycleSpec.cs_volume_cycle(
                l1, l1 * float(rng.uniform(0.3, 1.0)), float(rng.uniform(0, 2)), beta_h, beta_l
            )
        )
    return specs


# High-temperature boxes: 28,386, 28,314, 55,761 and 3,347 levels.
HOT_SPECS = [
    OttoCycleSpec.cs_coupling_cycle(1.0, 0.0, 2e-4, 2e-3),
    OttoCycleSpec.cs_volume_cycle(1.2, 1.0, 0.3, 2e-4, 1e-3),
    OttoCycleSpec.cs_coupling_cycle(0.2, 0.9, 1e-4, 3e-4),
    OttoCycleSpec.ring_cycle(0.1, 0.35, 2e-5, 1e-4),
]
SPECS = seeded_specs(2020, 12) + HOT_SPECS


@pytest.mark.parametrize("spec", SPECS, ids=[f"{s.medium}-{i}" for i, s in enumerate(SPECS)])
def test_block_rows_equal_the_allocating_path(spec):
    labels, e_hot, e_cold, p_b, p_a = otto._cycle_table(spec)
    box, columns = label_box(
        window_bounds(spec.spectrum_hot(), spec.beta_h, spec.tail_tol),
        window_bounds(spec.spectrum_cold(), spec.beta_l, spec.tail_tol),
    )
    assert np.array_equal(labels, box) and labels.dtype == np.int64
    assert np.array_equal(labels.reshape(len(labels), -1), np.column_stack(columns))
    assert all(np.shares_memory(c, box) for c in columns)
    for spectrum, beta, energies, populations in (
        (spec.spectrum_hot(), spec.beta_h, e_hot, p_b),
        (spec.spectrum_cold(), spec.beta_l, e_cold, p_a),
    ):
        allocated = spectrum.energies(*columns)
        reference = reference_energies(spectrum, columns)
        assert same_bits(allocated, reference)
        assert same_bits(energies, reference)
        assert same_bits(boltzmann(allocated, beta)[0], reference_populations(reference, beta))
        assert same_bits(populations, reference_populations(reference, beta))


def test_hot_pair_boxes_are_large():
    assert [len(otto._cycle_table(spec)[0]) for spec in HOT_SPECS[:3]] == [28386, 28314, 55761]


def test_hot_pair_cycle_peak_memory_per_level():
    # The CI's hot pair cycle: a 28,386-level box.  Labels (16 bytes a level),
    # their float columns (16) and the block (32) peak at 64 bytes a level;
    # the allocating path peaked at 88.
    spec = OttoCycleSpec.cs_coupling_cycle(1.0, 0.0, 2e-4, 2e-3)
    run_cycle(spec)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = run_cycle(spec)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(report.labels) == 28386
    assert peak <= 72 * len(report.labels)
