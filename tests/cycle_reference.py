"""An mpmath reference for a cycle over its own label box, ground-shifted.

Each isochore's populations are exp(-beta (E - E_min)) normalized over the
box, and its heat sums (E - E_min)(P_B - P_A): the ground's term is then 0
whatever its population difference is, so no digit is lost where both
ground populations are 1 to within 10^-50.  ``box_reference`` takes the
energies as given, so that a reference over a report's own float energies
grades only how the report assembled them (``report_reference``);
``exact_energies`` gives the levels' exact energies instead.
"""

import mpmath
import numpy as np

from anyon_otto import otto

DIGITS = 50


def table_rows(spec) -> tuple:
    """(labels, E_hot, E_cold, P_B, P_A) of the cycle table, level by level, degenerate or not."""
    box, hot, cold = otto._cycle_table(spec)
    return box.rows(hot, cold)


def exact_energies(spec, control, labels) -> list:
    """The energies of the cycle's spectrum at ``control`` on ``labels``, as mpf at ``DIGITS``."""
    with mpmath.workdps(DIGITS):
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


def gibbs_state(energies, beta) -> tuple:
    """(E - E_min, populations, entropy) of the Gibbs state on ``energies`` at ``beta``.

    The entropy is beta <E - E_min> + ln Z', with Z' the ground-shifted
    partition sum and ln Z' = log1p(Z' - 1) summed over the excited levels.
    """
    beta = mpmath.mpf(beta)
    e0 = min(energies)
    shifted = [e - e0 for e in energies]
    weights = [mpmath.exp(-beta * e) for e in shifted]
    excited = mpmath.fsum(w for e, w in zip(shifted, weights) if e != 0)
    ground = sum(1 for e in shifted if e == 0)
    z = ground + excited
    populations = [w / z for w in weights]
    mean = mpmath.fsum(e * p for e, p in zip(shifted, populations))
    return shifted, populations, beta * mean + mpmath.log1p(ground - 1 + excited)


def box_reference(spec, e_hot, e_cold) -> dict:
    """Heats, efficiency, adiabat works and entropies of the cycle on the given energies.

    ``e_hot`` and ``e_cold`` are the two spectra's energies on one label
    box, as floats or mpf; floats are taken exactly.  Values come back as
    mpf at ``DIGITS`` digits.  ``q_in_ulps`` and ``q_out_ulps`` are each heat's
    sensitivity to the populations' own rounding: eps times it bounds what
    rounding each population by 16 + 2 beta (E - E_min) ulps moves the heat.
    Where P_B is close to P_A, that exceeds 1e-12 of the heat.
    """
    with mpmath.workdps(DIGITS):
        e_hot = [mpmath.mpf(e) for e in e_hot]
        e_cold = [mpmath.mpf(e) for e in e_cold]
        x_hot, p_b, s_b = gibbs_state(e_hot, spec.beta_h)
        x_cold, p_a, s_a = gibbs_state(e_cold, spec.beta_l)
        dp = [b - a for b, a in zip(p_b, p_a)]
        q_in = mpmath.fsum(x * d for x, d in zip(x_hot, dp))
        q_out = mpmath.fsum(x * d for x, d in zip(x_cold, dp))
        # A population with exponent beta x carries some ulps of its own and 2 beta x
        # ulps of the exponent; summed with each heat's weights, per ulp.
        ulps = [
            b * (16 + 2 * spec.beta_h * xh) + a * (16 + 2 * spec.beta_l * xc)
            for b, a, xh, xc in zip(p_b, p_a, x_hot, x_cold)
        ]
        return {
            "q_in": q_in,
            "q_out": q_out,
            "q_in_ulps": mpmath.fsum(x * u for x, u in zip(x_hot, ulps)),
            "q_out_ulps": mpmath.fsum(x * u for x, u in zip(x_cold, ulps)),
            "efficiency": 1 - q_out / q_in if q_in else mpmath.nan,
            "work_bc": mpmath.fsum(p * (c - h) for p, c, h in zip(p_b, e_cold, e_hot)),
            "work_da": mpmath.fsum(p * (h - c) for p, c, h in zip(p_a, e_cold, e_hot)),
            "entropy_b": s_b,
            "entropy_a": s_a,
        }


def report_energies(report) -> tuple:
    """(E_hot, E_cold) per level of the report's box, from the floats the report summed.

    The ring sums its level rows.  The pair sums by label axis, so its level's
    energy is its isochore's constant plus its row's and its column's terms
    (``otto._Isochore``), added here without rounding.
    """
    box, hot, cold = report.table
    labels = report.labels
    if labels.ndim == 1:
        return report.energies_hot.tolist(), report.energies_cold.tolist()
    rows = np.searchsorted(box.n1, labels[:, 0]).tolist()
    cols = (len(box.n1) + np.searchsorted(box.n2, labels[:, 1])).tolist()
    with mpmath.workdps(DIGITS):
        return tuple(
            [
                mpmath.mpf(iso.constant) + mpmath.mpf(iso.energies[i]) + mpmath.mpf(iso.energies[j])
                for i, j in zip(rows, cols)
            ]
            for iso in (hot, cold)
        )


def report_reference(spec, report) -> dict:
    """``box_reference`` over the report's own box and float energies (``report_energies``)."""
    return box_reference(spec, *report_energies(report))


def relative_distance(value, exact) -> float:
    """|value - exact| / |exact|, or |value| where exact is 0."""
    with mpmath.workdps(DIGITS):
        exact = mpmath.mpf(exact)
        gap = abs(mpmath.mpf(value) - exact)
        return float(gap / abs(exact)) if exact else float(gap)
