"""Cycle heats and efficiencies against a 50-digit, ground-shifted mpmath reference.

A derandomized hypothesis draw over wide log-uniform ranges, on all three
media: beta_h in [1e-2, 1e3], beta_l = beta_h x [1, 100], controls in [0, 3]
(the cs-volume sizes in the length range), eps0 in [0.1, 10] and L in
[0.3, 3].  Boxes over 1,500 levels are skipped to keep the mpmath sums
short.  The reference (``cycle_reference.report_reference``) sums the
report's own float energies, so it grades how the report assembled its
sums.  Q_in and the efficiency must lie within 1e-12 relative of it, or,
where P_B is so close to P_A that the populations' own rounding moves them
further, within what that rounding admits (``box_reference``'s
``q_in_ulps``).  The efficiency 1 - r, r = Q_out/Q_in, may also differ by a
few ulps of r, which no order of summation removes.  How many draws needed
either allowance is counted beside the ``DegenerateCycle``s and skips.
These ranges may widen, never narrow.
"""

import math
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anyon_otto.errors import DegenerateCycle
from anyon_otto.otto import OttoCycleSpec, run_cycle
from cycle_reference import box_reference, exact_energies, relative_distance, report_reference

EPS = 2.0**-52
MAX_LEVELS = 1500


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


CONTROL = st.floats(0.0, 3.0)
LENGTH = st.floats(0.3, 3.0)


@st.composite
def cycle_specs(draw):
    beta_h = draw(log_uniform(1e-2, 1e3))
    beta_l = beta_h * draw(log_uniform(1.0, 100.0))
    medium = draw(st.sampled_from(["ring", "cs-coupling", "cs-volume"]))
    if medium == "ring":
        return OttoCycleSpec.ring_cycle(
            draw(CONTROL), draw(CONTROL), beta_h, beta_l, eps0=draw(log_uniform(0.1, 10.0))
        )
    if medium == "cs-coupling":
        return OttoCycleSpec.cs_coupling_cycle(
            draw(CONTROL), draw(CONTROL), beta_h, beta_l, length=draw(LENGTH)
        )
    return OttoCycleSpec.cs_volume_cycle(draw(LENGTH), draw(LENGTH), draw(CONTROL), beta_h, beta_l)


def test_cycles_match_mpmath_reference():
    counts = Counter()

    @settings(
        max_examples=500,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=cycle_specs())
    def check(spec):
        try:
            report = run_cycle(spec)
        except DegenerateCycle:
            counts[spec.medium, "degenerate"] += 1
            return
        if report.n_levels > MAX_LEVELS:
            counts[spec.medium, "skipped"] += 1
            return
        ref = report_reference(spec, report)
        q_in, q_out, eta = ref["q_in"], ref["q_out"], ref["efficiency"]
        # 1e-12 relative, or the populations' own rounding where P_B - P_A cancels
        slack_in = EPS * ref["q_in_ulps"]
        assert abs(report.q_in - q_in) <= 1e-12 * abs(q_in) + slack_in, spec
        slack = (abs(q_out) * slack_in / abs(q_in) + EPS * ref["q_out_ulps"]) / abs(q_in)
        slack += 4 * EPS * abs(q_out / q_in)
        assert abs(report.efficiency - eta) <= 1e-12 * abs(eta) + slack, spec
        strict = abs(report.q_in - q_in) <= 1e-12 * abs(q_in)
        strict = strict and abs(report.efficiency - eta) <= 1e-12 * abs(eta)
        counts[spec.medium, "graded" if strict else "graded past 1e-12"] += 1

    check()
    print(dict(counts))
    for medium in ("ring", "cs-coupling", "cs-volume"):
        assert counts[medium, "graded"] + counts[medium, "graded past 1e-12"] >= 50, counts


def test_low_temperature_pair_cycle_matches_exact_energies():
    # Unshifted sums printed 0.01529749629264876 here, 0.104 off, with exit 0.
    spec = OttoCycleSpec.cs_coupling_cycle(
        1.0578561565187314, 1.0588610259596507, 29.05474291953811, 109.48209187774994,
        length=1.0074949091074488,
    )
    report = run_cycle(spec)
    exact = box_reference(
        spec,
        exact_energies(spec, spec.control_hot, report.labels),
        exact_energies(spec, spec.control_cold, report.labels),
    )
    assert relative_distance(report.efficiency, exact["efficiency"]) < 1e-12
    assert relative_distance(report.q_in, exact["q_in"]) < 1e-12
