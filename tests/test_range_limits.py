"""Inputs at the ends of the double range: a typed error or an honest result, never a traceback."""

import math

import numpy as np
import pytest

from anyon_otto import cli
from anyon_otto.errors import DomainError
from anyon_otto.otto import OttoCycleSpec
from anyon_otto.spectra import RING_FLUX_LIMIT, RingAnyonSpectrum, enumerate_levels
from anyon_otto.special_functions import _log_gauss_tail

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
