"""The ordering contract of level sets and of the cycle table's union.

``enumerate_levels`` orders levels by energy, ties by label, with one stable
sort; ``otto._cycle_table`` merges two label-ordered runs into the union.
Each is checked here against the code it replaced, kept as a reference: a
three-key ``np.lexsort`` for the level order, and ``np.unique`` with
``return_index`` and ``return_inverse`` over both ensembles' labels for the
union.  The tie-heavy spectra are the ones where order matters: ring alpha 0
and 0.5 (E_n = E_{-n} and E_n = E_{1-n}) and pair alpha 0 and 1.
"""

import numpy as np
import pytest

from anyon_otto import otto, spectra
from anyon_otto.otto import OttoCycleSpec
from anyon_otto.spectra import (
    CSPairSpectrum,
    RingAnyonSpectrum,
    enumerate_levels,
    label_columns,
    label_keys,
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
    return np.lexsort(label_columns(labels)[::-1] + (energies,))


def unique_union(levels_b, levels_a):
    """The union the cycle table had before: np.unique over the concatenated labels."""
    both = np.concatenate((levels_b.labels, levels_a.labels))
    _, first, where = np.unique(label_keys(both), return_index=True, return_inverse=True)
    n_b = len(levels_b.labels)
    return both[first], where[:n_b], where[n_b:]


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

    def test_label_rank_is_the_label_order(self, case):
        spec, beta = case
        levels = enumerate_levels(spec, beta, TAIL_TOL)
        n = len(levels.labels)
        assert np.array_equal(np.sort(levels.label_rank), np.arange(n))
        by_label = np.empty_like(levels.labels)
        by_label[levels.label_rank] = levels.labels
        assert np.all(np.diff(label_keys(by_label)) > 0)
        assert not levels.label_rank.flags.writeable

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
        assert np.all(np.diff(label_keys(labels)) > 0)


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


@pytest.mark.parametrize(
    "spec", CYCLES, ids=lambda s: f"{s.medium}-{s.control_hot:g}-{s.control_cold:g}-{s.beta_h:g}"
)
def test_cycle_table_union_equals_unique_reference(spec, monkeypatch):
    calls = []
    labelwise = otto._labelwise

    def record(ensemble, medium_spec, labels, where):
        calls.append((ensemble, labels, where))
        return labelwise(ensemble, medium_spec, labels, where)

    monkeypatch.setattr(otto, "_labelwise", record)
    labels = otto._cycle_table(spec)[0]
    (ens_b, labels_b, where_b), (ens_a, labels_a, where_a) = calls
    ref_labels, ref_b, ref_a = unique_union(ens_b.levels, ens_a.levels)
    assert labels is labels_b is labels_a
    assert labels.dtype == ref_labels.dtype == np.int64
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(where_b, ref_b)
    assert np.array_equal(where_a, ref_a)
    # every union label is retained by one ensemble or the other
    assert len(np.union1d(where_b, where_a)) == len(labels)
