"""Closed forms against brute-force oracles, including the printed variants."""

import math
import warnings

import numpy as np
import pytest

from anyon_otto import closed_form as cf
from anyon_otto.closed_form import (
    VARIANT_APPENDIX,
    VARIANT_MAIN,
    VARIANT_REDERIVED,
    cs_efficiency_closed,
    cs_efficiency_value,
    cs_partition_closed,
    cs_partition_parity_terms,
    cs_weighted_energy_sum,
    partial_theta_weighted,
    ring_efficiency_closed,
    ring_efficiency_value,
    ring_partition_closed,
    ring_weighted_energy_sum,
    theta3_weighted,
)
from anyon_otto.errors import DegenerateCycle, DomainError, NoConvergence
from anyon_otto.otto import OttoCycleSpec, run_cycle
from anyon_otto.spectra import CSPairSpectrum, enumerate_levels
from anyon_otto.special_functions import DEFAULT_ACCURACY, gauss_sum_full, gauss_sum_half
from anyon_otto.thermo import partition_function

PI2 = math.pi**2
VARIANTS = (VARIANT_REDERIVED, VARIANT_MAIN, VARIANT_APPENDIX)


def brute_cs_energy(L, alpha, n1, n2):
    return PI2 * alpha**2 / L**2 + 2.0 * PI2 / L**2 * (
        n1 * n1 + n2 * n2 + alpha * (n1 - n2)
    )


def brute_cs_sum(L, alpha_w, alpha_b, beta, weighted, K=35, parity=None):
    total = 0.0
    for n1 in range(-K, K + 1):
        for n2 in range(n1, K + 1):
            if parity is not None and (n1 + n2) % 2 != parity:
                continue
            term = math.exp(-beta * brute_cs_energy(L, alpha_b, n1, n2))
            if weighted:
                term *= brute_cs_energy(L, alpha_w, n1, n2)
            total += term
    return total


class TestWeightedThetaSeries:
    @pytest.mark.parametrize("weight", [0, 1, 2])
    def test_full_series_direct(self, weight):
        x, q = 1.7, 0.3
        direct = sum(n**weight * q ** (n * n) * x**n for n in range(-40, 41))
        assert math.isclose(theta3_weighted(x, q, weight), direct, rel_tol=1e-13)

    @pytest.mark.parametrize("weight", [0, 1, 2])
    def test_half_series_direct(self, weight):
        x, q = 0.6, 0.45
        direct = sum(n**weight * q ** (n * n) * x**n for n in range(0, 60))
        assert math.isclose(partial_theta_weighted(x, q, weight), direct, rel_tol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            theta3_weighted(1.0, 1.2, 0)
        with pytest.raises(DomainError):
            partial_theta_weighted(-1.0, 0.5, 1)
        with pytest.raises(DomainError):
            theta3_weighted(1.0, 0.5, 3)

    @pytest.mark.parametrize("series", [theta3_weighted, partial_theta_weighted])
    @pytest.mark.parametrize(
        "x, q, weight, message",
        [
            (-1.0, 1.2, 3, "q must lie in (0, 1), got 1.2"),
            (-1.0, 0.5, 3, "x must be positive, got -1.0"),
            (1.0, 0.5, 3, "weight must be 0, 1 or 2, got 3"),
        ],
    )
    def test_domain_checked_in_order(self, series, x, q, weight, message):
        with pytest.raises(DomainError) as info:
            series(x, q, weight)
        assert str(info.value) == message


class TestRingWeightedEnergySum:
    def test_symmetric_point_direct_sum(self):
        direct = sum(n * n * math.exp(-float(n * n)) for n in range(-30, 31))
        rep = ring_weighted_energy_sum(0.0, 0.0, 1.0)
        assert math.isclose(rep.value, direct, rel_tol=1e-12)
        assert rep.rel_residual < 1e-12

    @pytest.mark.parametrize(
        "aw,ab,lam", [(0.3, 0.7, 0.8), (0.9, 0.2, 2.5), (0.5, 0.5, 0.3), (1.0, 0.0, 5.0)]
    )
    def test_matches_oracle(self, aw, ab, lam):
        rep = ring_weighted_energy_sum(aw, ab, lam)
        assert rep.rel_residual < 1e-12
        assert rep.oracle_value == gauss_sum_full(lam, ab, aw, 2)

    def test_equal_controls_equal_minus_dbeta_of_z(self):
        # sum (n-g)^2 e^(-lam (n-g)^2) = -d/dlam of the weight-0 sum
        gamma, lam, h = 0.45, 1.1, 1e-5
        rep = ring_weighted_energy_sum(gamma, gamma, lam)
        fd = (
            gauss_sum_full(lam - h, gamma, 0.0, 0) - gauss_sum_full(lam + h, gamma, 0.0, 0)
        ) / (2.0 * h)
        assert math.isclose(rep.value, fd, rel_tol=1e-6)

    def test_cold_limit_ground_state_dominates(self):
        rep = ring_weighted_energy_sum(0.3, 0.0, 40.0, eps0=1.0)
        assert math.isclose(rep.value, 0.3**2, rel_tol=1e-12)

    def test_printed_variants_fail_oracle(self):
        rederived = ring_weighted_energy_sum(0.3, 0.7, 0.8, variant=VARIANT_REDERIVED)
        main = ring_weighted_energy_sum(0.3, 0.7, 0.8, variant=VARIANT_MAIN)
        appendix = ring_weighted_energy_sum(0.3, 0.7, 0.8, variant=VARIANT_APPENDIX)
        assert rederived.rel_residual < 1e-12
        assert main.rel_residual > 1e-3
        assert appendix.rel_residual > 1e-3
        assert main.formula_variant == "paper-main-text"

    def test_variants_collapse_at_symmetric_point(self):
        # at gamma = 0 the full-lattice odd series vanishes, hiding the typo
        main = ring_weighted_energy_sum(0.4, 0.0, 1.0, variant=VARIANT_MAIN)
        assert main.rel_residual < 1e-12


class TestRingPartitionClosed:
    def test_free_point(self):
        rep = ring_partition_closed(0.0, 1.0)
        assert math.isclose(rep.value, gauss_sum_full(1.0, 0.0, 0.0, 0), rel_tol=1e-12)
        assert rep.rel_residual < 1e-10

    def test_reflection_symmetry(self):
        a = ring_partition_closed(0.5, 0.8)
        b = ring_partition_closed(-0.5, 0.8)
        assert math.isclose(a.value, b.value, rel_tol=1e-11)

    def test_flux_periodicity(self):
        a = ring_partition_closed(0.3, 0.8)
        b = ring_partition_closed(1.3, 0.8)
        assert math.isclose(a.value, b.value, rel_tol=1e-11)

    @pytest.mark.parametrize("lam", [0.05, 0.5, 2.0, 20.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.77])
    def test_residuals_across_grid(self, lam, alpha):
        rep = ring_partition_closed(alpha, lam)
        assert rep.rel_residual < 1e-10

    def test_printed_variant_fails_or_raises(self):
        rep = ring_partition_closed(0.5, 0.8, variant=VARIANT_MAIN)
        assert rep.rel_residual > 1e-3
        with pytest.raises(DomainError):
            ring_partition_closed(0.0, 0.8, variant=VARIANT_MAIN)

    @pytest.mark.parametrize("eps0", [-1000.0, -1.0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda eps0: ring_partition_closed(0.5, 1.0, eps0=eps0),
            lambda eps0: ring_efficiency_value(0.1, 0.3, 1.0, 2.0, eps0=eps0),
        ],
        ids=["partition", "efficiency"],
    )
    def test_nonpositive_eps0_is_domain_error(self, call, eps0):
        with pytest.raises(DomainError, match=rf"^eps0 must be positive, got {eps0}$"):
            call(eps0)


class TestRingEfficiencyClosed:
    def test_matches_cycle_oracle_on_engine_point(self):
        rep = ring_efficiency_closed(0.1, 0.3, 0.5, 25.0)
        assert rep.rel_residual < 1e-9
        oracle = run_cycle(OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0))
        assert rep.oracle_value == oracle.efficiency

    def test_matches_cycle_oracle_off_engine(self):
        rep = ring_efficiency_closed(0.0, 0.5, 0.05, 0.1)
        assert rep.rel_residual < 1e-9

    def test_equal_controls_degenerate(self):
        with pytest.raises(DegenerateCycle):
            ring_efficiency_closed(0.3, 0.3, 0.5, 1.0)

    def test_orientation_swap_inverts_the_ratio(self):
        # swapping hot and cold assignments turns q_out/q_in into q_in/q_out
        report = run_cycle(OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0))
        eta = report.efficiency
        eta_swapped = 1.0 - report.q_in / report.q_out
        assert math.isclose((1.0 - eta) * (1.0 - eta_swapped), 1.0, rel_tol=1e-12)
        # the reversed orientation absorbs work instead of producing it
        assert report.w_out > 0.0
        assert -report.w_out < 0.0


class TestNoThetaArgument:
    """Where exp(2 lam alpha) or exp(4 c alpha) overflows a double, Z is still certified.

    No closed form forms its theta argument, so these points, which raised
    NoConvergence while one did, give values equal to their oracles.
    """

    def test_ring_partition_closed(self):
        rep = ring_partition_closed(0.3, 2000.0)
        assert rep.value > 0.0 and rep.rel_residual == 0.0

    def test_cs_partition_closed(self):
        rep = cs_partition_closed(2.0, 10.0, 1.0)
        assert rep.rel_residual == 0.0
        assert sum(cs_partition_parity_terms(2.0, 10.0, 1.0)) == rep.value

    def test_ring_partition_past_the_range_of_q(self):
        # q = exp(-800) underflows to 0, which theta3 cannot take
        for alpha in (0.0, 0.3):
            rep = ring_partition_closed(alpha, 800.0)
            assert rep.value > 0.0 and rep.rel_residual == 0.0

    def test_ring_efficiency_value_cancels_to_a_degenerate_cycle(self):
        with pytest.raises(DegenerateCycle, match="closed-form denominator vanishes"):
            ring_efficiency_value(0.1, 0.3, 100.0, 2000.0)


class TestPartitionFunctionUnderflow:
    """A Z that underflows to 0 is NoConvergence, never a bare ZeroDivisionError."""

    @pytest.mark.parametrize(
        "efficiency, args",
        [
            (ring_efficiency_value, (0.3, 1e-300, 1e200, 0.3)),
            (cs_efficiency_value, (0.0, 1.0, 1e10, 7.5)),
            (cs_efficiency_value, (1.0, 1.0317434074991028, 1.0, 1.0, 0.049787068367863944)),
        ],
        ids=["ring", "cs-coupling", "cs-coupling-short"],
    )
    def test_typed_error(self, efficiency, args):
        with pytest.raises(NoConvergence, match="partition function underflows a double"):
            efficiency(*args)

    @pytest.mark.parametrize(
        "closed_form, args",
        [
            (ring_partition_closed, (0.5, 3000.0)),
            (cs_partition_closed, (0.5, 500.0, 1.0)),
            (cs_weighted_energy_sum, (0.5, 0.5, 500.0, 1.0)),
        ],
        ids=["ring", "cs", "cs-energy-sum"],
    )
    def test_oracle_reports_refuse_a_z_of_zero(self, closed_form, args):
        # both routes' Z read 0.0 here, which a residual of 0 certified
        with pytest.raises(NoConvergence, match="partition function underflows a double"):
            closed_form(*args)

    @pytest.mark.parametrize(
        "closed_form, args",
        [(ring_partition_closed, (0.3, 1.0)), (cs_partition_closed, (0.3, 0.1, 1.0))],
        ids=["ring", "cs"],
    )
    def test_an_oracle_z_of_zero_alone(self, monkeypatch, closed_form, args):
        monkeypatch.setattr(cf, "partition_function", lambda *a: 0.0)
        with pytest.raises(NoConvergence, match="partition function underflows a double"):
            closed_form(*args)


class TestEfficienciesDivideByTheReportedZ:
    """The Z in an efficiency is bit for bit the one the partition closed forms report."""

    def divisors(self, monkeypatch, efficiency, *args):
        zs = []
        real = cf._assemble

        def recorded(hot, cold, *rest):
            zs.extend((hot[0], cold[0]))
            return real(hot, cold, *rest)

        monkeypatch.setattr(cf, "_assemble", recorded)
        efficiency(*args)
        return zs

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("point", [(0.1, 0.3, 0.5, 25.0, 1.0), (0.35, 0.05, 0.01, 0.3, 2.0)])
    def test_ring(self, monkeypatch, point, variant):
        alpha_h, alpha_l, beta_h, beta_l, eps0 = point
        zs = self.divisors(monkeypatch, ring_efficiency_value, *point, DEFAULT_ACCURACY, variant)
        assert zs == [
            ring_partition_closed(alpha, beta, eps0, variant=variant).value
            for alpha, beta in ((alpha_h, beta_h), (alpha_l, beta_l))
        ]

    @pytest.mark.parametrize("point", [(0.2, 0.7, 0.05, 0.1, 1.0), (0.0, 1.0, 0.002, 0.02, 1.5)])
    def test_cs_coupling(self, monkeypatch, point):
        alpha1, alpha2, beta_h, beta_l, L = point
        zs = self.divisors(monkeypatch, cs_efficiency_value, *point)
        assert zs == [
            sum(cs_partition_parity_terms(alpha, beta, L))
            for alpha, beta in ((alpha2, beta_h), (alpha1, beta_l))
        ]
        assert zs == [
            cs_partition_closed(alpha, beta, L).value
            for alpha, beta in ((alpha2, beta_h), (alpha1, beta_l))
        ]


@pytest.mark.parametrize("L", [1e-170, 1e-160, 1e-154, 1e170])
@pytest.mark.parametrize(
    "closed_form",
    [
        lambda L: cs_partition_parity_terms(0.5, 0.1, L),
        lambda L: cs_weighted_energy_sum(0.5, 0.5, 0.1, L),
        lambda L: cs_efficiency_value(0.0, 0.5, 0.05, 0.1, L),
    ],
    ids=["parity-terms", "weighted-energy-sum", "efficiency-value"],
)
def test_pair_length_outside_double_range(closed_form, L):
    with pytest.raises(DomainError) as exc:
        closed_form(L)
    assert str(exc.value) == f"L must keep pi^2/L^2 a finite positive double, got {L}"


class TestCsPartitionClosed:
    def test_cold_limit_is_one(self):
        rep = cs_partition_closed(0.0, 5.0, 1.0)
        assert math.isclose(rep.value, 1.0, rel_tol=1e-10)

    def test_free_boson_point_direct(self):
        rep = cs_partition_closed(0.0, 1.0, 1.0)
        direct = brute_cs_sum(1.0, 0.0, 0.0, 1.0, weighted=False, K=6)
        assert math.isclose(rep.value, direct, rel_tol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_hot_point_both_statistics(self, alpha):
        beta = 0.05
        rep = cs_partition_closed(alpha, beta, 1.0)
        assert rep.rel_residual < 1e-11

    def test_fermion_endpoint_independent_formula(self):
        # alpha = 1 spectrum as half-integer pairs 2 pi^2 [(n1+1/2)^2 + (n2-1/2)^2]
        beta, L = 0.08, 1.0
        direct = sum(
            math.exp(-beta * 2.0 * PI2 / L**2 * ((n1 + 0.5) ** 2 + (n2 - 0.5) ** 2))
            for n1 in range(-30, 31)
            for n2 in range(n1, 31)
        )
        rep = cs_partition_closed(1.0, beta, L)
        assert math.isclose(rep.value, direct, rel_tol=1e-11)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("c", [0.2, 1.0, 5.0])
    def test_residuals_across_grid(self, alpha, c):
        rep = cs_partition_closed(alpha, c / PI2, 1.0)
        assert rep.rel_residual < 1e-10

    def test_parity_terms_match_filtered_sums(self):
        alpha, beta, L = 0.6, 0.09, 1.0
        even, odd = cs_partition_parity_terms(alpha, beta, L)
        # m = n1+n2 and n = n2-n1 share parity, so filter on n1+n2
        direct_even = brute_cs_sum(L, 0.0, alpha, beta, weighted=False, parity=0)
        direct_odd = brute_cs_sum(L, 0.0, alpha, beta, weighted=False, parity=1)
        assert math.isclose(even, direct_even, rel_tol=1e-11)
        assert math.isclose(odd, direct_odd, rel_tol=1e-11)

    def test_printed_variant_fails(self):
        rep = cs_partition_closed(0.5, 0.1, 1.0, variant=VARIANT_APPENDIX)
        assert rep.rel_residual > 1e-2


class TestCsWeightedEnergySum:
    @pytest.mark.parametrize("aw,ab,beta", [(0.0, 0.4, 0.05), (1.0, 0.5, 0.02), (0.7, 0.0, 0.3)])
    def test_oracle_matches_loop_reference(self, aw, ab, beta):
        # The oracle sums an array; the reference adds term by term with
        # math.exp.  All terms are positive, so the two orders agree within
        # one rounding per term.
        levels = enumerate_levels(CSPairSpectrum(1.0, ab), beta, 1e-13)
        weight_spec = CSPairSpectrum(1.0, aw)
        loop = 0.0
        for (n1, n2), e in zip(levels.labels.tolist(), levels.energies.tolist()):
            loop += weight_spec.energy(n1, n2) * math.exp(-beta * e)
        rep = cs_weighted_energy_sum(aw, ab, beta, 1.0, 1e-13)
        tol = len(levels.labels) * np.finfo(float).eps
        assert math.isclose(rep.oracle_value, loop, rel_tol=tol)

    def test_free_point_direct_double_sum(self):
        rep = cs_weighted_energy_sum(0.0, 0.0, 1.0, 1.0)
        direct = brute_cs_sum(1.0, 0.0, 0.0, 1.0, weighted=True, K=6)
        assert math.isclose(rep.value, direct, rel_tol=1e-10)

    @pytest.mark.parametrize(
        "aw,ab,beta", [(0.0, 1.0, 0.1), (1.0, 0.0, 0.1), (0.3, 0.8, 0.05), (0.6, 0.25, 0.15)]
    )
    def test_matches_oracle(self, aw, ab, beta):
        rep = cs_weighted_energy_sum(aw, ab, beta, 1.0)
        assert rep.rel_residual < 1e-11

    def test_equal_couplings_give_minus_dbeta_z(self):
        alpha, beta, L, h = 0.7, 0.12, 1.0, 1e-6
        rep = cs_weighted_energy_sum(alpha, alpha, beta, L)
        spec = CSPairSpectrum(L, alpha)
        fd = (
            partition_function(spec, beta - h) - partition_function(spec, beta + h)
        ) / (2.0 * h)
        assert math.isclose(rep.value, fd, rel_tol=1e-6)

    def test_cold_limit_ground_state(self):
        rep = cs_weighted_energy_sum(0.4, 0.0, 4.0, 1.0)
        assert math.isclose(rep.value, PI2 * 0.4**2, rel_tol=1e-10)

    def test_printed_variant_cannot_converge(self):
        with pytest.raises(DomainError):
            cs_weighted_energy_sum(0.3, 0.8, 0.05, 1.0, variant=VARIANT_APPENDIX)


class TestCsEfficiencyClosed:
    def test_bose_fermi_point_matches_oracle(self):
        rep = cs_efficiency_closed(0.0, 1.0, 0.05, 0.1, 1.0)
        assert rep.rel_residual < 1e-9
        oracle = run_cycle(OttoCycleSpec.cs_coupling_cycle(0.0, 1.0, 0.05, 0.1, 1.0))
        assert rep.oracle_value == oracle.efficiency

    @pytest.mark.parametrize(
        "a1,a2,bh,bl",
        [(0.2, 0.8, 0.04, 0.2), (0.5, 1.0, 0.1, 0.3), (0.0, 0.5, 0.02, 0.08)],
    )
    def test_grid_points_match_oracle(self, a1, a2, bh, bl):
        rep = cs_efficiency_closed(a1, a2, bh, bl, 1.0)
        assert rep.rel_residual < 1e-9

    def test_equal_couplings_degenerate(self):
        with pytest.raises(DegenerateCycle):
            cs_efficiency_closed(0.5, 0.5, 0.05, 0.1, 1.0)

    def test_continuity_toward_fermi_endpoint(self):
        eta_end = cs_efficiency_closed(0.0, 1.0, 0.05, 0.1, 1.0).value
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            eta = cs_efficiency_closed(0.0, 1.0 - eps, 0.05, 0.1, 1.0).value
            gaps.append(abs(eta - eta_end))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2


class TestEfficiencyReportIsValuePlusOracle:
    def test_ring(self):
        rep = ring_efficiency_closed(0.1, 0.3, 0.5, 25.0)
        assert rep.value == ring_efficiency_value(0.1, 0.3, 0.5, 25.0)
        oracle = run_cycle(OttoCycleSpec.ring_cycle(0.1, 0.3, 0.5, 25.0))
        assert rep.oracle_value == oracle.efficiency

    def test_cs_coupling(self):
        rep = cs_efficiency_closed(0.2, 0.7, 0.05, 0.1)
        assert rep.value == cs_efficiency_value(0.2, 0.7, 0.05, 0.1)
        oracle = run_cycle(OttoCycleSpec.cs_coupling_cycle(0.2, 0.7, 0.05, 0.1)).efficiency
        assert rep.oracle_value == oracle


class TestReportInvariant:
    def test_rel_residual_recomputable(self):
        rep = ring_partition_closed(0.3, 1.2)
        recomputed = abs(rep.value - rep.oracle_value) / max(abs(rep.oracle_value), 1e-300)
        assert rep.rel_residual == recomputed
        assert rep.formula_variant == "rederived"


class TestHighTemperatureClosedForms:
    """Full-lattice theta series below lam = 0.05 take the Poisson dual; the oracles stay direct."""

    @pytest.mark.parametrize("weight", [0, 1, 2])
    def test_weighted_series_match_the_direct_oracle(self, weight):
        x, q = 1.5, math.exp(-2e-3)
        lam, gamma = -math.log(q), math.log(x) / (-2.0 * math.log(q))
        with pytest.warns(RuntimeWarning, match="slow Gaussian decay"):
            oracle = gauss_sum_full(lam, gamma, 0.0, weight)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = math.exp(-lam * gamma * gamma) * theta3_weighted(x, q, weight)
        assert math.isclose(closed, oracle, rel_tol=1e-11)

    def test_ring_closed_form_sums_without_slow_decay(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ring_efficiency_value(0.1, 0.3, 2e-5, 1e-4)
        oracle = run_cycle(OttoCycleSpec.ring_cycle(0.1, 0.3, 2e-5, 1e-4)).efficiency
        assert abs(value - oracle) <= 1e-9 * abs(oracle)

    def test_ring_energy_sum_against_its_oracle(self):
        with pytest.warns(RuntimeWarning, match="slow Gaussian decay"):
            rep = ring_weighted_energy_sum(0.35, 0.1, 1e-3)
        assert rep.rel_residual <= 1e-10

    def test_pair_relative_factors_sum_without_slow_decay(self):
        # partial theta has no modular transformation: its slow sums take Euler-Maclaurin
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs_efficiency_value(0.2, 0.7, 5e-4, 5e-3)
        rel_tol = DEFAULT_ACCURACY.rel_tol
        for beta, alpha in ((5e-4, 0.7), (5e-4, 0.2)):
            q = math.exp(-4.0 * beta * PI2)
            lam = -math.log(q)
            for shift in (alpha / 2.0, (alpha - 1.0) / 2.0):
                x = math.exp(2.0 * lam * shift)
                gamma = math.log(x) / (2.0 * lam)  # as partial_theta_weighted reads x, q
                for weight in (0, 1, 2):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        closed = math.exp(-lam * gamma * gamma) * partial_theta_weighted(
                            x, q, weight
                        )
                    with pytest.warns(RuntimeWarning, match="slow Gaussian decay"):
                        oracle = gauss_sum_half(lam, gamma, 0.0, weight)
                    assert abs(closed - oracle) <= rel_tol * abs(oracle), (alpha, shift, weight)
