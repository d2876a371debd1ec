"""Inputs at the ends of the double range: a typed error or an honest result, never a traceback."""

import itertools
import math

import numpy as np
import pytest

from anyon_otto import cli
from anyon_otto import closed_form as cf
from anyon_otto import special_functions as sf
from anyon_otto.errors import AnyonOttoError, DomainError, NoConvergence
from anyon_otto.otto import OttoCycleSpec, cycle_strokes, efficiency_cs_volume
from anyon_otto.spectra import (
    RING_FLUX_LIMIT,
    CSPairSpectrum,
    RingAnyonSpectrum,
    enumerate_levels,
    pauli_energy,
)
from anyon_otto.special_functions import _log_gauss_tail
from anyon_otto.thermo import gibbs_isochore_path, linear_isochore_path

RING = ["cycle", "--medium", "ring", "--alpha-h", "0.1", "--alpha-l", "0.3"]
CS = ["cycle", "--medium", "cs-coupling", "--alpha1", "0", "--alpha2", "0.5"]


def run_cli(argv, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


class TestOverflowingDecayRate:
    """lam = beta * eps0 (or beta pi^2/L^2) so large that 2 lam u overflows in the tail bound."""

    @pytest.mark.parametrize("weight", [0, 1, 2])
    @pytest.mark.parametrize("lam", [1e308, math.inf])
    def test_tail_bound_is_minus_infinity(self, lam, weight):
        assert _log_gauss_tail(lam, 2.5, 0.5, weight) == -math.inf

    def test_tail_bound_drops_only_the_coefficient(self):
        # 2 lam u overflows, lam u^2 does not: the bound is exp(-lam u^2)
        assert _log_gauss_tail(1e308, 0.9, 0.0, 0) == -1e308 * 0.9 * 0.9

    def test_finite_bounds_keep_their_bits(self):
        assert _log_gauss_tail(2.0, 3.0, 0.0, 0) == -2.0 * 9.0 + math.log(1.0 / 12.0)

    def test_infinite_eps0_energies_exit_1(self, capsys):
        argv = RING + ["--beta-h", "10", "--beta-l", "20", "--eps0", "1e308"]
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == "error: level energies leave the double range (largest inf)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            RING + ["--beta-h", "10", "--beta-l", "20", "--eps0", "1e307"],
            RING + ["--beta-h", "1e300", "--beta-l", "1e301", "--eps0", "1e10"],
            CS + ["--beta-h", "1e300", "--beta-l", "1e301", "--length", "1e-5"],
        ],
        ids=["ring-eps0-1e307", "ring-beta-1e300", "pair-beta-1e300"],
    )
    def test_frozen_ground_state_is_degenerate(self, capsys, argv):
        # Both isochores hold only their ground state: the populations coincide.
        code, out, _ = run_cli(argv, capsys)
        assert code == cli.EXIT_NON_ENGINE
        assert "regime = degenerate" in out


class TestRingFluxLimit:
    @pytest.mark.parametrize("alpha", [RING_FLUX_LIMIT, -RING_FLUX_LIMIT, 1e17, -1e300])
    def test_spectrum_rejects(self, alpha):
        with pytest.raises(DomainError, match=r"alpha must satisfy \|alpha\| < 2\^52"):
            RingAnyonSpectrum(eps0=1.0, alpha=alpha)

    @pytest.mark.parametrize("alpha_h, alpha_l", [(1e17, 0.3), (0.1, -RING_FLUX_LIMIT)])
    def test_spec_rejects(self, alpha_h, alpha_l):
        with pytest.raises(DomainError, match=r"flux parameters must satisfy \|alpha\| < 2\^52"):
            OttoCycleSpec.ring_cycle(alpha_h, alpha_l, 1.0, 2.0)

    def test_cli_exits_64(self, capsys):
        argv = ["cycle", "--medium", "ring", "--alpha-h", "1e17", "--alpha-l", "0.3"]
        code, out, err = run_cli(argv + ["--beta-h", "1", "--beta-l", "2"], capsys)
        assert (code, out) == (cli.EXIT_CONFIG, "")
        assert err == "config error: flux parameters must satisfy |alpha| < 2^52\n"

    def test_largest_flux_keeps_its_bits(self):
        alpha = RING_FLUX_LIMIT - 0.5
        levels = enumerate_levels(RingAnyonSpectrum(eps0=1.0, alpha=alpha), 1.0, 1e-13)
        n = levels.labels
        assert levels.energies.tolist() == [(float(k) - alpha) ** 2 for k in n.tolist()]
        assert levels.energies[0] == 0.25
        assert {int(n[0]), int(n[1])} == {2**52 - 1, 2**52}


# Each real argument of the public functions below is drawn from these.
VALUES = (math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, -1.0, 0.5, 2.0, 1e10)


def finite_or_typed(f, *args):
    """f(*args) is a finite float (or a report with a finite value), or raises AnyonOttoError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = f(*args)
    except AnyonOttoError:
        return
    except Exception as exc:  # noqa: BLE001 - the test names every bare exception
        pytest.fail(f"{f.__name__}{args}: {type(exc).__name__}: {exc}")
    value = getattr(value, "value", value)
    assert math.isfinite(value), (f.__name__, args, value)


def report_value(report):
    return lambda *args: report(*args).value


class TestSeriesRangeLimits:
    @pytest.mark.parametrize(
        "series",
        [sf.theta3, sf.partial_theta, sf.theta3_report, sf.partial_theta_report],
    )
    def test_theta(self, series):
        for x, q in itertools.product(VALUES, VALUES):
            finite_or_typed(series, x, q)

    @pytest.mark.parametrize("series", [cf.theta3_weighted, cf.partial_theta_weighted])
    @pytest.mark.parametrize("weight", [0, 1, 2])
    def test_weighted_theta(self, series, weight):
        for x, q in itertools.product(VALUES, VALUES):
            finite_or_typed(series, x, q, weight)

    @pytest.mark.parametrize(
        "series",
        [sf.gauss_sum_full, sf.gauss_sum_half, sf.gauss_sum_full_report, sf.gauss_sum_half_report],
    )
    @pytest.mark.parametrize("weight", [0, 1, 2])
    def test_gauss_sums(self, series, weight):
        for lam, gamma, c in itertools.product(VALUES, VALUES, VALUES):
            finite_or_typed(series, lam, gamma, c, weight)

    def test_weighted_energy_sums(self):
        for alpha in VALUES:
            finite_or_typed(cf.ring_weighted_energy_sum, 0.3, alpha, 0.5)
            finite_or_typed(cf.ring_weighted_energy_sum, alpha, 0.3, 0.5)
            finite_or_typed(cf.cs_weighted_energy_sum, 0.3, alpha, 0.5, 1.0)
            finite_or_typed(cf.cs_weighted_energy_sum, alpha, 0.3, 0.5, 1.0)

    def test_ring_partition_closed(self):
        for alpha, beta, eps0 in itertools.product(VALUES, VALUES, VALUES):
            finite_or_typed(cf.ring_partition_closed, alpha, beta, eps0)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: sf.theta3(math.inf, 0.5), DomainError, "x must be finite, got inf"),
            (lambda: sf.partial_theta(math.inf, 0.5), DomainError, "x must be finite, got inf"),
            (lambda: cf.theta3_weighted(math.inf, 0.5, 2), DomainError, "x must be finite"),
            (
                lambda: cf.ring_partition_closed(math.inf, 1.0),
                DomainError,
                "gamma must be finite, got inf",
            ),
            (lambda: sf.gauss_sum_full(1.0, math.inf, 0.0, 0), DomainError, "gamma must be finite"),
            (lambda: sf.gauss_sum_half(1.0, math.nan, 0.0, 0), DomainError, "gamma must be finite"),
            (lambda: sf.gauss_sum_full(0.5, 1e10, 1e308, 2), NoConvergence, "term exceeds"),
            # past 2^53 the labels near gamma repeat as doubles: a wrong sum, not a slow one
            (lambda: sf.gauss_sum_full(2.0, 2.0**53, 0.0, 0), DomainError, r"\|gamma\| < 2\^52"),
            (lambda: sf.gauss_sum_half(2.0, -1e308, 0.0, 0), DomainError, r"\|gamma\| < 2\^52"),
            # the closed forms' series check their centre before _lattice_sum rounds it
            (
                lambda: cf.ring_weighted_energy_sum(0.3, math.inf, 0.5),
                DomainError,
                "gamma must be finite, got inf",
            ),
            (
                lambda: cf.cs_weighted_energy_sum(0.3, math.nan, 0.5, 1.0),
                DomainError,
                "gamma must be finite, got nan",
            ),
            # a decay rate past the double range is refused before any term is summed
            (
                lambda: cf.ring_partition_closed(0.3, math.inf),
                DomainError,
                "series decay rate must be finite, got inf",
            ),
            (
                lambda: cf.ring_weighted_energy_sum(0.3, 0.3, 1e308, 2.0),
                DomainError,
                "series decay rate must be finite, got inf",
            ),
            (
                lambda: cf.cs_partition_parity_terms(0.3, 1e308, 1.0),
                DomainError,
                "series decay rate must be finite, got inf",
            ),
            # existing messages keep their place ahead of the finiteness checks
            (lambda: sf.theta3(math.nan, 0.5), DomainError, "x must be positive, got nan"),
            (lambda: sf.gauss_sum_full(-1.0, math.inf, 0, 0), DomainError, "lambda must be pos"),
        ],
    )
    def test_named_errors(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestPairEnergyRange:
    """alpha^2 past the double range is a DomainError; finite energies keep their bits."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: CSPairSpectrum(L=1.0, alpha=1e200).energies([0], [1]),
            lambda: CSPairSpectrum(L=1.0, alpha=1e200).energy(0, 1),
            lambda: cf.cs_weighted_energy_sum(1e308, 0.0, 0.5, 1.0),
        ],
        ids=["energies", "energy", "cs-weighted-energy-sum"],
    )
    def test_overflowing_alpha_is_domain_error(self, call):
        with pytest.raises(DomainError, match=r"^alpha\^2 leaves the double range, got alpha="):
            call()

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 7.5, 1e100, 1.3e154])
    def test_finite_energies_keep_their_bits(self, alpha):
        spec = CSPairSpectrum(L=0.7, alpha=alpha)
        n1, n2 = np.array([-3, 0, 0, 2, -40]), np.array([5, 0, 1, 2, 17])
        unit = math.pi**2 / 0.7**2
        f1, f2 = n1.astype(float), n2.astype(float)
        expected = unit * alpha**2 + 2.0 * unit * (f1 * f1 + f2 * f2 + alpha * (f1 - f2))
        assert spec.energies(n1, n2).tobytes() == expected.tobytes()
        out = np.empty(5)
        assert spec.energies(f1, f2, out=out, scratch=np.empty(5)) is out
        assert out.tobytes() == expected.tobytes()
        assert [spec.energy(int(i), int(j)) for i, j in zip(n1, n2)] == expected.tolist()


class TestClosedFormulaRangeLimits:
    def test_pauli_energy(self):
        for N, omega in itertools.product((1, 2, 3, 10**200, 10**400) + VALUES, VALUES):
            finite_or_typed(pauli_energy, N, omega)

    @pytest.mark.parametrize(
        "N, omega", [(1, math.inf), (2, math.inf), (10**200, 1e300), (10**400, 1.0)]
    )
    def test_pauli_energy_errors(self, N, omega):
        with pytest.raises(DomainError):
            pauli_energy(N, omega)

    def test_pauli_energy_keeps_its_values(self):
        assert pauli_energy(3, 2.0) == 6.0
        assert pauli_energy(1, 1e308) == 0.0

    def test_efficiency_cs_volume(self):
        for l1, l2 in itertools.product(VALUES, VALUES):
            finite_or_typed(efficiency_cs_volume, l1, l2)
        with pytest.raises(DomainError, match="l1 must be finite, got inf"):
            efficiency_cs_volume(math.inf, math.inf)
        assert efficiency_cs_volume(2.0, 1.0) == 0.75

    @pytest.mark.parametrize("l1, l2", [(2e160, 1e160), (1e-170, 5e-171)])
    def test_efficiency_cs_volume_where_the_squares_leave_the_range(self, l1, l2):
        # L1^2 and L2^2 overflow (or underflow) together; their ratio does not.
        assert efficiency_cs_volume(l1, l2) == 0.75

    def test_efficiency_cs_volume_keeps_the_bits_of_the_squares(self):
        sizes = (5e-324, 1e-170, 1e-100, 0.3, 1.3, 2.0, 1e100, 1e160, 1e200, 1.7e308)
        kept = 0
        for l1, l2 in itertools.product(sizes, sizes):
            l1_sq = l1 * l1
            squares = 1.0 - (l2 * l2) / l1_sq if l1_sq > 0.0 else math.nan
            if math.isfinite(squares):
                assert efficiency_cs_volume(l1, l2) == squares, (l1, l2)
                kept += 1
        assert kept >= 50

    @pytest.mark.parametrize("l1, l2", [(1e-300, 1e300), (1e-100, 1e100), (5e-324, 1.7e308)])
    def test_efficiency_cs_volume_ratio_overflow(self, l1, l2):
        with pytest.raises(DomainError, match=r"^L2\^2/L1\^2 leaves the double range at l1="):
            efficiency_cs_volume(l1, l2)


class TestStepCounts:
    """Every step count is an integer >= 1; anything else is a DomainError naming it."""

    # call -> (the name its step count goes by, the call at step count n)
    CALLS = {
        "cycle_strokes": (
            "steps_per_stroke",
            lambda n: cycle_strokes(OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0), n),
        ),
        "gibbs_isochore_path": (
            "n_steps",
            lambda n: gibbs_isochore_path(RingAnyonSpectrum(1.0, 0.2), 2.0, 1.0, n),
        ),
        "linear_isochore_path": (
            "n_steps",
            lambda n: linear_isochore_path((0.0, 1.0), (0.6, 0.4), (0.3, 0.7), n),
        ),
    }

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 2.5, 2.0, "3", None])
    @pytest.mark.parametrize("call", CALLS)
    def test_non_integers(self, call, n):
        name, run = self.CALLS[call]
        with pytest.raises(DomainError) as info:
            run(n)
        assert str(info.value) == f"{name} must be an integer >= 1, got {n!r}"

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("call", CALLS)
    def test_below_one(self, call, n):
        name, run = self.CALLS[call]
        with pytest.raises(DomainError) as info:
            run(n)
        assert str(info.value) == f"{name} must be >= 1, got {n}"

    @pytest.mark.parametrize("call", CALLS)
    def test_numpy_integers_are_step_counts(self, call):
        _, run = self.CALLS[call]
        assert run(np.int64(3)) == run(3)
