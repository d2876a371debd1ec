"""The cycle table: its per-level rows on request, and its pair sums by label axis.

A pair cycle's heats, ledger and noise rule are sums over the box's rows n1
and columns n2 (``otto._PairBox``); the per-level rows E_hot, E_cold, P_B
and P_A are built only when a report's arrays are read.  Those rows must
equal, bit for bit and signed zeros included, what the allocating path
gives: ``spec.energies`` on the ``label_box`` columns, then
``thermo.boltzmann``; and both must equal the expressions the spectra and
``boltzmann`` evaluated before they could write into a given row, kept here
as the reference.  The sums by label axis must agree with the same sums
taken level by level over the rows, which this file keeps as the
reference.  tracemalloc guards hold a pair cycle's peak memory to a bound
that does not grow with the box, and reading its arrays to 72 bytes a level.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from anyon_otto import cli, otto
from anyon_otto.errors import DegenerateCycle
from anyon_otto.otto import OttoCycleSpec, run_cycle
from anyon_otto.spectra import RingAnyonSpectrum, label_box, label_ranges, window_bounds
from anyon_otto.thermo import boltzmann, sum_of_products


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
    report = run_cycle(spec)
    labels, e_hot, e_cold, p_b, p_a = (
        report.labels, report.energies_hot, report.energies_cold,
        report.populations_b, report.populations_a,
    )
    assert len(labels) == report.n_levels
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


def traced_peak(call) -> tuple:
    """(result, peak bytes above the start) of ``call()`` under tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def test_hot_pair_cycle_peak_memory_per_level():
    # The CI's hot pair cycle: a 28,386-level box.  Reading its arrays builds
    # the labels (16 bytes a level), their float columns (16) and the block
    # of rows (32), a peak of 64 bytes a level; the allocating path peaked at 88.
    spec = OttoCycleSpec.cs_coupling_cycle(1.0, 0.0, 2e-4, 2e-3)
    run_cycle(spec).labels
    report = run_cycle(spec)
    labels, peak = traced_peak(lambda: report.labels)
    assert len(labels) == 28386
    assert peak <= 72 * len(labels)


@pytest.mark.parametrize("spec", [HOT_SPECS[0], HOT_SPECS[2]], ids=["28386", "55761"])
def test_pair_cycle_allocates_nothing_of_box_size(spec):
    # The sums by label axis hold O(K) arrays, K ~ 200-300 labels a side: a
    # peak of 35-46 kB, where one float row of the 28,386-level box is 227 kB.
    run_cycle(spec)
    report, peak = traced_peak(lambda: run_cycle(spec))
    assert report.n_levels in (28386, 55761)
    assert peak <= 128 * 1024


def pair_specs():
    """The pair cycles of SPECS, and one whose rows and columns each come in two pieces."""
    split = OttoCycleSpec.cs_coupling_cycle(40.0, 0.0, 2.0, 4.0)
    return [s for s in SPECS if s.medium != "ring"] + [split]


def test_a_pair_box_can_come_in_pieces():
    spec = pair_specs()[-1]
    hot, cold = (
        window_bounds(spec.spectrum_hot(), spec.beta_h, spec.tail_tol),
        window_bounds(spec.spectrum_cold(), spec.beta_l, spec.tail_tol),
    )
    for labels in label_ranges(hot, cold):
        assert np.count_nonzero(np.diff(labels) > 1) == 1


@pytest.mark.parametrize("spec", pair_specs(), ids=lambda s: f"{s.medium}-{s.beta_h:g}")
def test_split_energies_add_up_to_the_spectrum(spec):
    # constant + A(n1) + B(n2) equals spec.energies within a few ulps of the terms it sums
    box, hot, cold = otto._cycle_table(spec)
    labels, e_hot, e_cold, _, _ = box.rows(hot, cold)
    rows = np.searchsorted(box.n1, labels[:, 0])
    cols = len(box.n1) + np.searchsorted(box.n2, labels[:, 1])
    for iso, energies in ((hot, e_hot), (cold, e_cold)):
        split = iso.constant + iso.energies[rows] + iso.energies[cols]
        terms = np.array([iso.spectrum.term_bound(float(e)) for e in energies])
        assert np.all(np.abs(split - energies) <= 8 * np.finfo(float).eps * terms)
        assert iso.energies.min() == 0.0


@pytest.mark.parametrize("spec", pair_specs(), ids=lambda s: f"{s.medium}-{s.beta_h:g}")
def test_axis_sums_match_the_level_rows(spec):
    box, hot, cold = otto._cycle_table(spec)
    labels, e_hot, e_cold, p_b, p_a = box.rows(hot, cold)
    eps = np.finfo(float).eps
    k = len(box.n1)
    row_of = np.searchsorted(box.n1, labels[:, 0])
    col_of = np.searchsorted(box.n2, labels[:, 1])

    def marginals(values):
        return np.concatenate(
            (np.bincount(row_of, values, k), np.bincount(col_of, values, len(box.n2)))
        )

    for iso, energies, populations in ((hot, e_hot, p_b), (cold, e_cold, p_a)):
        # The marginals are the rows' populations summed over each row and each
        # column, within a few ulps and 2 beta times the energies' own rounding.
        t = np.array([iso.spectrum.term_bound(float(e)) for e in energies])
        slack = marginals(populations * eps * (32 + 32 * iso.beta * t))
        assert np.all(np.abs(iso.populations - marginals(populations)) <= slack)
    # Each heat agrees with the level-by-level sum within eps times its
    # conditioning.  Either side's energies err by a few ulps of the terms
    # they add up (t); an error d moves the heat by d |dP| itself, and by
    # 2 beta d relative through each population.
    dp_rows = p_b - p_a
    dp = hot.populations - cold.populations
    for iso, energies in ((hot, e_hot), (cold, e_cold)):
        x = energies - energies.min()
        level = sum_of_products(x, dp_rows)
        t = np.maximum(*(
            np.array([s.term_bound(float(v)) for v in e]) for s, e in
            ((hot.spectrum, e_hot), (cold.spectrum, e_cold))
        ))
        moved = t * (np.abs(dp_rows) + 2 * x * (hot.beta * p_b + cold.beta * p_a))
        bound = eps * (16 * float(moved.sum()) + 64 * float((x * (p_b + p_a)).sum()))
        assert abs(iso.heat(dp) - level) <= bound


# Cycles whose Q_in is at most rounding noise: couplings or temperatures an ulp
# or two apart.  The first is noise by the elementwise rule; the others are
# not, but their axis bound reaches the limit, so the rows decide.
NOISE_SPECS = [
    OttoCycleSpec.cs_coupling_cycle(0.5733383427082137, 0.5733383427082136, 4.783041680893518,
                                    4.783041680893519),
    OttoCycleSpec.cs_coupling_cycle(1.8375534124959363, 1.8375534124959356, 3.8104121632522894,
                                    3.81041216325229),
    OttoCycleSpec.cs_coupling_cycle(1.0, 1.0, 1.0, 1.0 + 2.0**-52),
    OttoCycleSpec.cs_volume_cycle(1.0, 1.0, 0.0, 1.0, 1.0 + 2.0**-51),
]


def test_noise_fallback_keeps_every_verdict(monkeypatch):
    elementwise = otto._rows_are_noise
    fallbacks = []

    def counted(rows, r, limit):
        fallbacks.append(elementwise(rows, r, limit))
        return fallbacks[-1]

    monkeypatch.setattr(otto, "_rows_are_noise", counted)
    verdicts = {}
    for spec in SPECS + NOISE_SPECS:
        box, hot, cold = otto._cycle_table(spec)
        dp = hot.populations - cold.populations
        q_in, q_out = hot.heat(dp), cold.heat(dp)
        if q_in == 0.0:
            continue
        r = q_out / q_in
        limit = abs(q_in) * max(1.0, abs(1.0 - r))
        got = box.is_noise(hot, cold, r, limit)
        assert got == elementwise(box.rows(hot, cold), r, limit), spec
        verdicts[spec] = got
    # the bound decides every cycle of SPECS alone, and each noise cycle's rows
    assert len(fallbacks) == len(NOISE_SPECS)
    assert [verdicts[s] for s in NOISE_SPECS] == [True, False, False, False]
    with pytest.raises(DegenerateCycle):
        run_cycle(NOISE_SPECS[0])


@pytest.mark.filterwarnings("ignore:slow Gaussian decay")
def test_cycle_out_counts_the_box_without_its_rows(tmp_path, monkeypatch, capsys):
    def unread(self, hot, cold):
        raise AssertionError("the pair box built its per-level rows")

    monkeypatch.setattr(otto._PairBox, "rows", unread)
    argv = ["cycle", "--medium", "cs-coupling", "--alpha1", "1", "--alpha2", "0",
            "--beta-h", "2e-4", "--beta-l", "2e-3", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "cycle.json").read_text())["n_levels"] == 28386
