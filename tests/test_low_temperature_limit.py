"""The low-temperature limit of run_cycle: the two-level Otto efficiency.

As both temperatures fall, only the ground and the first excited levels keep
population, and eta tends to 1 - dE_cold/dE_hot of that excitation (Kieu,
PRL 93, 140403 (2004)).  Neither the oracle nor the closed forms use this
limit, so it checks them from outside.  With ground-shifted excitations a_k
(hot) and b_k (cold) and r0 = b_1/a_1,

    eta - eta0 = sum_k dP_k (r0 a_k - b_k) / Q_in,

where the first excited levels' terms vanish.  At beta_l >> beta_h each dP_k
is P_B's, so the leading term is that of the next level whose excitations
are not in the ratio r0: eta - eta0 -> coeff w, with
w = exp(-beta_h (a_2 - a_1)) its Boltzmann weight relative to the first
excited level's and coeff = (g_2/g_1) |r0 a_2 - b_2| / a_1 for degeneracies
g.  Every quantity of the limit comes from ``energy`` at a few labels.

The closed forms' half of this check waits on their low-temperature
rewrite: today they raise ``DegenerateCycle`` at the ladder's cold end and
lose digits before it: the ring's gives 0.5 at beta_h 40, where
``run_cycle``'s 0.49999986 lies the predicted coeff w = 1.4e-7 away.
"""

import math

import pytest

from anyon_otto.otto import OttoCycleSpec, run_cycle

EPS = 2.0**-52

# (cycle at (beta_h, beta_l), ground label, first excited label and its
# degeneracy, next contributing label and its degeneracy)
LIMITS = {
    # alpha 0.1 -> 0.3: levels n = 0, 1, -1 at excitations 0.8 -> 0.4 and 1.2 -> 1.6
    "ring": (lambda bh, bl: OttoCycleSpec.ring_cycle(0.1, 0.3, bh, bl), (0,), (1,), 1, (-1,), 1),
    # alpha 0.1 (hot) -> 0.5 (cold), in units pi^2/L^2: (0, 1) and (-1, 0) at 1.8 -> 1;
    # (-1, 1) at 3.6 -> 2 is in the ratio r0 and adds nothing; (1, 1), (-1, -1) at 4 -> 4
    "cs-coupling": (
        lambda bh, bl: OttoCycleSpec.cs_coupling_cycle(0.5, 0.1, bh, bl),
        (0, 0), (0, 1), 2, (1, 1), 2,
    ),
    # every level scales as 1/L^2, so every excitation is in the ratio r0: coeff 0
    "cs-volume": (
        lambda bh, bl: OttoCycleSpec.cs_volume_cycle(1.0, 0.8, 0.3, bh, bl),
        (0, 0), (0, 1), 2, (1, 1), 2,
    ),
}


@pytest.mark.parametrize("medium", sorted(LIMITS))
def test_efficiency_tends_to_the_two_level_value(medium):
    make, ground, first, g1, nxt, g2 = LIMITS[medium]
    template = make(1.0, 20.0)
    hot, cold = template.spectrum_hot(), template.spectrum_cold()
    a1, a2 = (hot.energy(*label) - hot.energy(*ground) for label in (first, nxt))
    b1, b2 = (cold.energy(*label) - cold.energy(*ground) for label in (first, nxt))
    eta0, r0 = 1.0 - b1 / a1, b1 / a1
    coeff = g2 / g1 * abs(r0 * a2 - b2) / a1
    distances = []
    # beta_h (a_2 - a_1) from 1 to 64: w from 0.37 down to 1.6e-28
    for x in (1, 2, 4, 8, 16, 32, 64):
        beta_h = x / (a2 - a1)
        eta = run_cycle(make(beta_h, 20.0 * beta_h)).efficiency
        d, lead = abs(eta - eta0), coeff * math.exp(-x)
        assert d <= 2.0 * lead + 4.0 * EPS, (medium, x, eta)
        if lead > 1e-9 and x >= 8:
            # past the first rungs, the leading term alone is the distance
            assert abs(d / lead - 1.0) < 0.02, (medium, x, eta)
        distances.append(d)
    assert distances[-1] <= 4.0 * EPS
    if coeff > 1e-9:
        assert distances[0] > 0.1


def test_ring_prints_the_limit_at_beta_100():
    # beta 100/2000, where w = exp(-40) ~ 4e-18: within 2 ulps of 1/2
    eta = run_cycle(OttoCycleSpec.ring_cycle(0.1, 0.3, 100.0, 2000.0)).efficiency
    assert abs(eta - 0.5) <= 2 * 2.0**-53
