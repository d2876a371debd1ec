"""Otto cycle composition: regimes, stroke identities, sweeps."""

import dataclasses
import math

import numpy as np
import pytest

from anyon_otto import otto
from anyon_otto.errors import AnyonOttoError, DegenerateCycle, DomainError
from anyon_otto.otto import (
    MEDIA,
    MEDIUM,
    REGIME_DEGENERATE,
    REGIME_ENGINE,
    OttoCycleSpec,
    StrokeResult,
    cycle_strokes,
    efficiency_cs_volume,
    run_cycle,
    sweep_axes,
    sweep_efficiency,
)
from anyon_otto.spectra import CSPairSpectrum, RingAnyonSpectrum, window_bounds
from anyon_otto.thermo import adiabat_path, heat_work_split, linear_isochore_path
from cycle_reference import report_reference, table_rows


def _reference_cycle_strokes(spec, steps_per_stroke):
    """The four strokes as discretized paths, as cycle_strokes built them.

    Isochores interpolate populations linearly at fixed levels, each shifted
    to its ground as the cycle's heats are; adiabats move the control
    linearly through ``steps_per_stroke + 1`` spectra at frozen populations;
    each path goes through ``heat_work_split``.
    """
    labels, e_hot, e_cold, p_b, p_a = table_rows(spec)
    columns = tuple(labels.reshape(len(labels), -1).T)
    controls = np.linspace(spec.control_hot, spec.control_cold, steps_per_stroke + 1)
    grids_fwd = [spec.spectrum_at(float(cv)).energies(*columns) for cv in controls]
    x_hot, x_cold = e_hot - e_hot.min(), e_cold - e_cold.min()
    paths = (
        ("A->B", linear_isochore_path(x_hot, p_a, p_b, steps_per_stroke)),
        ("B->C", adiabat_path(grids_fwd, p_b)),
        ("C->D", linear_isochore_path(x_cold, p_b, p_a, steps_per_stroke)),
        ("D->A", adiabat_path(grids_fwd[::-1], p_a)),
    )
    return tuple(StrokeResult(name, *heat_work_split(path)) for name, path in paths)


class TestOttoCycleSpec:
    def test_beta_ordering_enforced(self):
        with pytest.raises(DomainError):
            OttoCycleSpec.ring_cycle(0.1, 0.3, beta_h=2.0, beta_l=1.0)

    def test_bad_medium(self):
        with pytest.raises(DomainError):
            OttoCycleSpec(
                medium="qubit", beta_h=1.0, beta_l=2.0, control_hot=0.1, control_cold=0.2
            )

    def test_positive_lengths_required(self):
        with pytest.raises(DomainError):
            OttoCycleSpec.cs_volume_cycle(0.0, 1.0, 0.5, 0.1, 0.2)

    @pytest.mark.parametrize("tail_tol", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize(
        "make",
        [
            lambda tol: OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 2.0, tail_tol=tol),
            lambda tol: OttoCycleSpec.cs_volume_cycle(2.0, 1.0, 0.5, 0.1, 0.2, tail_tol=tol),
            lambda tol: OttoCycleSpec.cs_coupling_cycle(0.0, 1.0, 0.1, 0.2, tail_tol=tol),
        ],
        ids=["ring", "cs-volume", "cs-coupling"],
    )
    def test_tail_tol_outside_unit_interval_is_domain_error(self, make, tail_tol):
        with pytest.raises(DomainError, match=r"^tail_tol must lie in \(0, 1\), got "):
            make(tail_tol)

    def test_constructor_orientation(self):
        spec = OttoCycleSpec.cs_volume_cycle(2.0, 1.0, 0.5, 0.1, 0.2)
        assert spec.control_hot == 1.0  # compressed size takes the heat
        assert spec.control_cold == 2.0
        spec = OttoCycleSpec.cs_coupling_cycle(0.0, 1.0, 0.1, 0.2)
        assert spec.control_hot == 1.0
        assert spec.control_cold == 0.0


# Each medium's named constructor with distinct, valid keyword values.
CONSTRUCTORS = {
    "ring": (
        OttoCycleSpec.ring_cycle,
        dict(alpha_h=0.1, alpha_l=0.3, beta_h=0.5, beta_l=5.0, eps0=1.5),
    ),
    "cs-volume": (
        OttoCycleSpec.cs_volume_cycle,
        dict(l1=2.0, l2=1.2, alpha=0.4, beta_h=0.05, beta_l=0.2),
    ),
    "cs-coupling": (
        OttoCycleSpec.cs_coupling_cycle,
        dict(alpha1=0.2, alpha2=0.7, beta_h=0.05, beta_l=0.1, length=1.3),
    ),
}


class TestMediumTable:
    def test_media_are_the_table_keys(self):
        assert MEDIA == tuple(MEDIUM) == tuple(CONSTRUCTORS)

    @pytest.mark.parametrize("medium", MEDIA)
    def test_axes_are_the_constructor_keywords(self, medium):
        _, kwargs = CONSTRUCTORS[medium]
        assert set(sweep_axes(medium)) == set(kwargs)
        assert sweep_axes(medium)[:2] == ("beta_h", "beta_l")

    @pytest.mark.parametrize("medium", MEDIA)
    def test_every_axis_sets_the_constructor_field(self, medium):
        make, kwargs = CONSTRUCTORS[medium]
        for axis in sweep_axes(medium):
            value = kwargs[axis] * 1.1
            expected = make(**{**kwargs, axis: value})
            (row,) = sweep_efficiency(make(**kwargs), axis, [value])
            assert row.spec == expected, axis
            assert row.report.efficiency == run_cycle(expected).efficiency

    @pytest.mark.parametrize(
        "medium, bad, message",
        [
            ("ring", {"eps0": 0.0}, "eps0 must be positive"),
            ("cs-volume", {"l1": 0.0}, "ring sizes must be positive"),
            ("cs-volume", {"l2": -1.0}, "ring sizes must be positive"),
            ("cs-volume", {"alpha": -0.1}, "alpha must be >= 0"),
            ("cs-coupling", {"length": 0.0}, "length must be positive"),
            ("cs-coupling", {"alpha1": -0.1}, "couplings must be >= 0"),
            ("cs-coupling", {"alpha2": -0.1}, "couplings must be >= 0"),
        ],
    )
    def test_domain_checks_keep_their_messages(self, medium, bad, message):
        make, kwargs = CONSTRUCTORS[medium]
        with pytest.raises(DomainError, match=f"^{message}$"):
            make(**{**kwargs, **bad})

    @pytest.mark.parametrize("L", [1e-170, 1e-160, 1e-154, 1e170])
    @pytest.mark.parametrize(
        "medium, key, name",
        [
            ("cs-volume", "l1", "ring sizes"),
            ("cs-volume", "l2", "ring sizes"),
            ("cs-coupling", "length", "length"),
        ],
    )
    def test_pair_length_outside_double_range(self, medium, key, name, L):
        make, kwargs = CONSTRUCTORS[medium]
        with pytest.raises(DomainError) as exc:
            make(**{**kwargs, key: L})
        assert str(exc.value) == f"{name} must keep pi^2/L^2 a finite positive double"

    def test_spectrum_takes_the_control_where_the_medium_varies(self):
        ring = OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 5.0, eps0=1.5)
        assert ring.spectrum_hot() == RingAnyonSpectrum(eps0=1.5, alpha=0.1)
        volume = OttoCycleSpec.cs_volume_cycle(2.0, 1.2, 0.4, 0.05, 0.2)
        assert volume.spectrum_hot() == CSPairSpectrum(L=1.2, alpha=0.4)
        assert volume.spectrum_cold() == CSPairSpectrum(L=2.0, alpha=0.4)
        coupling = OttoCycleSpec.cs_coupling_cycle(0.2, 0.7, 0.05, 0.1, length=1.3)
        assert coupling.spectrum_hot() == CSPairSpectrum(L=1.3, alpha=0.7)
        assert coupling.spectrum_cold() == CSPairSpectrum(L=1.3, alpha=0.2)

    def test_sweep_row_spec_is_none_only_without_a_valid_spec(self):
        template = OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0)
        valid, unbuilt, failed = sweep_efficiency(template, "beta_h", [0.5, 30.0, 1e-12])
        assert valid.spec == template
        assert unbuilt.spec is None and unbuilt.error.startswith("DomainError: ")
        assert failed.spec == OttoCycleSpec.ring_cycle(0.1, 0.3, 1e-12, 25.0)
        assert failed.report is None and failed.error.startswith("NoConvergence: ")


class TestRunCycle:
    def test_fully_identical_settings_raise(self):
        spec = OttoCycleSpec.ring_cycle(0.3, 0.3, 1.0, 1.0)
        with pytest.raises(DegenerateCycle):
            run_cycle(spec)

    def test_equal_controls_flagged_degenerate(self):
        report = run_cycle(OttoCycleSpec.ring_cycle(0.3, 0.3, 1.0, 2.0))
        assert report.w_out == 0.0
        assert report.efficiency == 0.0
        assert report.regime == REGIME_DEGENERATE

    def test_known_engine_point(self):
        report = run_cycle(OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0))
        assert report.regime == REGIME_ENGINE
        assert 0.0 < report.efficiency < 1.0
        assert report.q_in > 0.0 and report.w_out > 0.0
        assert math.isclose(report.w_out, report.q_in - report.q_out, rel_tol=1e-10)

    def test_cs_volume_efficiency_is_compression_ratio(self):
        report = run_cycle(OttoCycleSpec.cs_volume_cycle(1.0, 0.5, 0.5, 0.01, 0.02))
        assert abs(report.efficiency - 0.75) < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("betas", [(0.01, 0.02), (0.05, 0.2)])
    def test_cs_volume_independent_of_alpha_and_temps(self, alpha, betas):
        report = run_cycle(
            OttoCycleSpec.cs_volume_cycle(1.3, 0.6, alpha, betas[0], betas[1])
        )
        target = efficiency_cs_volume(1.3, 0.6)
        assert abs(report.efficiency - target) <= 1e-10 * abs(target)

    def test_populations_cover_union_and_normalize(self):
        report = run_cycle(OttoCycleSpec.ring_cycle(0.1, 0.45, 0.4, 8.0))
        assert len(report.labels) == len(report.populations_a)
        assert abs(sum(report.populations_b) - 1.0) < 1e-10
        assert abs(sum(report.populations_a) - 1.0) < 1e-10

    def test_energy_shift_invariance_of_efficiency(self):
        report = run_cycle(OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0))
        dp = np.asarray(report.populations_b) - np.asarray(report.populations_a)
        for shift in (-0.7, 0.37, 5.0):
            q_in = float((np.asarray(report.energies_hot) + shift) @ dp)
            q_out = float((np.asarray(report.energies_cold) + shift) @ dp)
            eta = 1.0 - q_out / q_in
            assert abs(eta - report.efficiency) <= 1e-10 * abs(report.efficiency)

    def test_engine_implies_bounded_efficiency_on_grid(self):
        # >= 100 parameter combinations; every engine-flagged point obeys
        # 0 < eta < 1
        n_engine = 0
        n_total = 0
        for alpha_h in (0.05, 0.15, 0.3):
            for d_alpha in (0.1, 0.25, 0.6):
                for beta_h in (0.1, 0.5, 1.5):
                    for mult in (2.0, 10.0, 40.0, 120.0):
                        n_total += 1
                        report = run_cycle(
                            OttoCycleSpec.ring_cycle(
                                alpha_h, alpha_h + d_alpha, beta_h, beta_h * mult
                            )
                        )
                        if report.regime == REGIME_ENGINE:
                            n_engine += 1
                            assert 0.0 < report.efficiency < 1.0
        assert n_total >= 100
        assert n_engine >= 5


class TestEfficiencyCsVolume:
    def test_no_compression_no_work(self):
        assert efficiency_cs_volume(1.0, 1.0) == 0.0

    def test_plain_ratio(self):
        assert efficiency_cs_volume(2.0, 1.0) == 0.75

    def test_positive_sizes_required(self):
        with pytest.raises(DomainError):
            efficiency_cs_volume(0.0, 1.0)


class TestCycleStrokes:
    @pytest.mark.parametrize(
        "spec",
        [
            OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0),
            OttoCycleSpec.cs_volume_cycle(1.0, 0.5, 0.5, 0.05, 0.3),
            OttoCycleSpec.cs_coupling_cycle(0.0, 1.0, 0.05, 0.1),
        ],
    )
    def test_stroke_identities(self, spec):
        strokes = cycle_strokes(spec, steps_per_stroke=200)
        report = run_cycle(spec)
        assert strokes.stroke("A->B").work == 0.0
        assert strokes.stroke("C->D").work == 0.0
        assert strokes.stroke("B->C").heat == 0.0
        assert strokes.stroke("D->A").heat == 0.0
        # heats along the isochores match the population-difference sums
        assert math.isclose(strokes.stroke("A->B").heat, report.q_in, rel_tol=1e-10)
        assert math.isclose(strokes.stroke("C->D").heat, -report.q_out, rel_tol=1e-10)
        # output work equals minus the work absorbed along the two adiabats
        w_adiabats = strokes.stroke("B->C").work + strokes.stroke("D->A").work
        assert abs(report.w_out + w_adiabats) <= 1e-8 * max(1.0, abs(report.w_out))

    @pytest.mark.parametrize("steps", [1, 7, 1000])
    @pytest.mark.parametrize(
        "spec",
        [
            OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0),
            OttoCycleSpec.ring_cycle(0.1, 0.4, 2e-3, 1e-2),
            OttoCycleSpec.cs_volume_cycle(1.0, 0.5, 0.5, 0.05, 0.3),
            OttoCycleSpec.cs_volume_cycle(1.0, 0.6, 0.3, 3e-3, 1e-2),
            OttoCycleSpec.cs_coupling_cycle(0.0, 1.0, 0.05, 0.1),
            OttoCycleSpec.cs_coupling_cycle(0.2, 0.7, 5e-3, 2e-2),
        ],
        ids=["ring", "ring-hot", "cs-volume", "cs-volume-hot", "cs-coupling", "cs-coupling-hot"],
    )
    def test_endpoint_strokes_match_stepped_reference(self, spec, steps):
        got = cycle_strokes(spec, steps)
        reference = _reference_cycle_strokes(spec, steps)
        report = run_cycle(spec)
        assert [s.name for s in got.strokes] == [r.name for r in reference]
        for stroke, ref in zip(got.strokes, reference):
            assert abs(stroke.heat - ref.heat) <= 1e-10 * abs(report.q_in)
            assert abs(stroke.work - ref.work) <= 1e-10 * abs(report.q_in)
        if steps == 1 and spec.medium == "ring":
            assert got.strokes == reference
        if spec.medium != "ring":
            # the pair sums by label axis: its ledger is graded against mpmath
            exact = report_reference(spec, report)
            for value, key in (
                (got.stroke("A->B").heat, "q_in"),
                (-got.stroke("C->D").heat, "q_out"),
                (got.stroke("B->C").work, "work_bc"),
                (got.stroke("D->A").work, "work_da"),
                (got.entropy_b, "entropy_b"),
                (got.entropy_a, "entropy_a"),
            ):
                assert abs(value - exact[key]) <= 1e-12 * abs(exact[key]), key
        assert got.stroke("A->B").work == 0.0
        assert got.stroke("C->D").work == 0.0
        assert got.stroke("B->C").heat == 0.0
        assert got.stroke("D->A").heat == 0.0
        assert got.stroke("A->B").heat == report.q_in
        assert got.stroke("C->D").heat == -report.q_out
        assert got == cycle_strokes(spec, 1)
        assert got == run_cycle(spec).strokes()

    @pytest.mark.parametrize(
        "spec",
        [
            # a coupling and a temperature one ulp apart: the computed Q_in is
            # 3.5e-94, where mpmath gives -5.5e-32 over the same box
            OttoCycleSpec.cs_coupling_cycle(
                0.5733383427082137, 0.5733383427082136, 4.783041680893518, 4.783041680893519
            ),
            OttoCycleSpec.ring_cycle(0.2, 0.2, 1.0, 1.0),
        ],
        ids=["rounding-noise", "identical-controls"],
    )
    def test_degenerate_cycle_raises_as_run_cycle_does(self, spec):
        with pytest.raises(DegenerateCycle):
            run_cycle(spec)
        with pytest.raises(DegenerateCycle):
            cycle_strokes(spec)

    def test_step_count_below_one_is_domain_error(self):
        with pytest.raises(DomainError):
            cycle_strokes(OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0), 0)

    def test_adiabats_preserve_entropy_exactly(self):
        strokes = cycle_strokes(OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0), 50)
        assert strokes.entropy_b == strokes.entropy_c
        assert strokes.entropy_d == strokes.entropy_a


class TestSweep:
    def test_single_point_matches_run_cycle(self):
        template = OttoCycleSpec.cs_coupling_cycle(0.0, 0.5, 0.05, 0.1)
        rows = sweep_efficiency(template, "alpha2", [1.0])
        direct = run_cycle(OttoCycleSpec.cs_coupling_cycle(0.0, 1.0, 0.05, 0.1))
        assert rows[0].report.efficiency == direct.efficiency

    def test_empty_grid(self):
        template = OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 5.0)
        assert sweep_efficiency(template, "alpha_l", []) == []

    def test_order_preserved_and_degenerate_rows_flagged(self):
        template = OttoCycleSpec.cs_coupling_cycle(0.0, 0.5, 0.05, 0.1)
        values = [0.4, 0.0, 0.8]
        rows = sweep_efficiency(template, "alpha2", values)
        assert [row.value for row in rows] == values
        assert rows[1].report.regime == REGIME_DEGENERATE

    def test_invalid_value_recorded_not_raised(self):
        template = OttoCycleSpec.cs_volume_cycle(1.0, 0.5, 0.0, 0.05, 0.2)
        rows = sweep_efficiency(template, "l2", [-1.0, 0.6])
        assert rows[0].report is None
        assert "DomainError" in rows[0].error
        assert rows[1].report is not None

    def test_no_convergence_recorded_not_raised(self):
        template = OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0)
        rows = sweep_efficiency(template, "beta_h", [0.5, 1e-12])
        assert len(rows) == 2
        assert rows[0].report is not None
        assert rows[1].report is None
        assert rows[1].error.startswith("NoConvergence: ")

    def test_unknown_axis(self):
        template = OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 5.0)
        with pytest.raises(DomainError):
            sweep_efficiency(template, "l1", [1.0])

    def test_beta_h_grid_approaches_equal_temperature_continuously(self):
        template = OttoCycleSpec.ring_cycle(0.1, 0.6, 0.2, 1.0)
        values = [1.0 - 0.5**k for k in range(1, 15)]  # -> 1.0 from below
        rows = sweep_efficiency(template, "beta_h", values)
        effs = [row.report.efficiency for row in rows]
        assert all(math.isfinite(e) for e in effs)
        diffs = [abs(b - a) for a, b in zip(effs, effs[1:])]
        # later steps (halved spacing) move the efficiency less
        assert diffs[-1] < diffs[0]
        assert diffs[-1] < 1e-3


def _same_report(a, b):
    """Bit-for-bit equality of two cycle reports, arrays and scalars."""
    for name in ("q_in", "q_out", "w_out", "efficiency"):
        assert getattr(a, name).hex() == getattr(b, name).hex(), name
    assert a.regime == b.regime
    for name in ("labels", "energies_hot", "energies_cold", "populations_b", "populations_a"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def _independent_row(template, field, value):
    """(report, error) of the cycle at one sweep value, run on its own."""
    try:
        return run_cycle(dataclasses.replace(template, **{field: float(value)})), None
    except AnyonOttoError as exc:
        return None, f"{type(exc).__name__}: {exc}"


class TestSweepSharing:
    """Rows share the unswept isochore's window search, and equal independent cycles bit for bit."""

    def check_rows(self, template, axis, values):
        field = MEDIUM[template.medium].axis_fields[axis]
        rows = sweep_efficiency(template, axis, values)
        assert [row.value for row in rows] == values
        for row, value in zip(rows, values):
            report, error = _independent_row(template, field, value)
            assert row.error == error, (axis, value)
            if report is not None:
                _same_report(row.report, report)
        return rows

    @pytest.mark.parametrize(
        "medium, axis",
        [(medium, axis) for medium in MEDIA for axis in sweep_axes(medium)],
    )
    def test_rows_equal_independent_cycles(self, medium, axis):
        make, kwargs = CONSTRUCTORS[medium]
        v = kwargs[axis]
        # a failing row (no valid spec) sits between rows that reuse ensembles
        values = [v, 1.1 * v, math.nan, 1.1 * v, 0.9 * v, v]
        rows = self.check_rows(make(**kwargs), axis, values)
        assert [row.report is None for row in rows] == [False, False, True, False, False, False]

    def test_rows_after_a_failure_inside_the_cycle(self):
        # beta_h = 1e-12 fails enumerating the hot ensemble; beta_h = beta_l with
        # equal controls fails after both ensembles, which are then one entry
        template = OttoCycleSpec.ring_cycle(0.2, 0.2, 0.5, 1.0)
        rows = self.check_rows(template, "beta_h", [0.5, 1e-12, 0.7, 1.0, 0.5])
        assert rows[1].error.startswith("NoConvergence: ")
        assert rows[3].error.startswith("DegenerateCycle: ")
        assert all(row.report is not None for row in rows[::2])

    def count_windows(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return window_bounds(*args)

        monkeypatch.setattr(otto, "window_bounds", counted)
        return calls

    def test_unswept_isochore_computed_once(self, monkeypatch):
        calls = self.count_windows(monkeypatch)
        template = OttoCycleSpec.cs_coupling_cycle(0.0, 0.5, 0.05, 0.1)
        values = [k / 20 for k in range(21)]
        sweep_efficiency(template, "alpha2", values)
        assert len(calls) == 22
        # nothing outlives the sweep: a second identical one repeats every call
        sweep_efficiency(template, "alpha2", values)
        assert len(calls) == 44

    def test_axis_moving_both_isochores_shares_nothing(self, monkeypatch):
        calls = self.count_windows(monkeypatch)
        template = OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 5.0)
        sweep_efficiency(template, "eps0", [0.5 + k / 20 for k in range(21)])
        assert len(calls) == 42

    def test_run_cycle_shares_nothing(self, monkeypatch):
        calls = self.count_windows(monkeypatch)
        spec = OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 5.0)
        run_cycle(spec)
        run_cycle(spec)
        assert len(calls) == 4


class TestIsochoreMemo:
    def test_keeps_every_result_per_function(self):
        calls = []

        def f(x):
            calls.append(x)
            return [x]

        reuse = otto._IsochoreMemo()
        first = {x: reuse(f, x) for x in (1.0, 2.0, 3.0)}
        for x in (3.0, 1.0, 2.0, 1.0):
            assert reuse(f, x) is first[x]
        assert calls == [1.0, 2.0, 3.0]

    def test_a_computation_that_raised_is_not_kept(self):
        calls = []

        def fails_once(x):
            calls.append(x)
            if len(calls) == 1:
                raise DomainError("first call fails")
            return x

        reuse = otto._IsochoreMemo()
        with pytest.raises(DomainError):
            reuse(fails_once, 1.0)
        assert (reuse(fails_once, 1.0), reuse(fails_once, 1.0)) == (1.0, 1.0)
        assert calls == [1.0, 1.0]

    def test_the_memo_passed_on_is_not_part_of_the_key(self):
        calls = []

        def outer(x, reuse):
            calls.append(x)
            return reuse(math.sqrt, x)

        reuse = otto._IsochoreMemo()
        assert reuse(outer, 4.0, reuse) == reuse(outer, 4.0, reuse) == 2.0
        assert calls == [4.0]

    def test_signed_zeros_are_distinct_keys(self):
        reuse = otto._IsochoreMemo()

        def sign(x):
            return math.copysign(1.0, x)

        assert (reuse(sign, 0.0), reuse(sign, -0.0)) == (1.0, -1.0)

    def test_functions_do_not_evict_each_other(self):
        calls = []

        def f(x):
            calls.append(("f", x))
            return x

        def g(x):
            calls.append(("g", x))
            return x

        reuse = otto._IsochoreMemo()
        for x in (1.0, 2.0):
            reuse(f, x)
            reuse(g, x)
        reuse(f, 1.0)
        reuse(g, 1.0)
        assert calls == [("f", 1.0), ("g", 1.0), ("f", 2.0), ("g", 2.0)]
