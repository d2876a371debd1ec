"""Closed-form-versus-oracle validation grids.

Each family evaluates one identity over a parameter grid and records the
worst relative residual.  Thresholds scale with the series tolerance in use,
so loosening ``rel_tol`` loosens the gates proportionally.  The CLI
``validate`` subcommand prints one line per family and fails (exit 3) when
any family exceeds its threshold; pointing ``formula_variant`` at one of the
printed variants is expected to fail and names the variant in the summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import closed_form as cf
from .errors import AnyonOttoError
from .otto import OttoCycleSpec, efficiency_cs_volume, run_cycle
from .special_functions import DEFAULT_ACCURACY, SumAccuracy, gauss_sum_full, partial_theta, theta3

__all__ = ["FamilyResult", "run_validation", "THRESHOLD_FACTORS"]

# Family threshold = factor * rel_tol.  At the default rel_tol = 1e-12 these
# give 2e-12 / 4e-12 / 1e-11 for the theta identities, 1e-10 for partition
# functions and weighted sums, and 1e-9 for assembled efficiencies.
THRESHOLD_FACTORS = {
    "theta-symmetry": 2.0,
    "theta-split": 4.0,
    "theta-monotonic": 1.0,
    "gauss-vs-theta": 10.0,
    "ring-partition": 100.0,
    "ring-energy-sum": 100.0,
    "ring-efficiency": 1000.0,
    "cs-partition": 100.0,
    "cs-energy-sum": 100.0,
    "cs-efficiency": 1000.0,
    "cs-volume": 100.0,
}


@dataclass(frozen=True)
class FamilyResult:
    name: str
    max_residual: float
    threshold: float
    worst_point: str
    n_points: int
    n_errors: int
    formula_variant: str

    @property
    def passed(self) -> bool:
        return self.n_errors == 0 and self.max_residual <= self.threshold


def _family(name: str, variant: str, rel_tol: float, points) -> FamilyResult:
    """Check one identity at each ``(point label, residual thunk)`` pair.

    A thunk returns the point's relative residual; one that raises
    ``AnyonOttoError`` is an error point, which makes the residual infinite
    and names the point and the message as the worst.
    """
    max_residual, worst_point, n_points, n_errors = 0.0, "", 0, 0
    for point, residual in points:
        n_points += 1
        try:
            r = residual()
        except AnyonOttoError as exc:
            n_errors += 1
            max_residual, worst_point = math.inf, f"{point} ({exc})"
            continue
        if r > max_residual:
            max_residual, worst_point = r, point
    threshold = THRESHOLD_FACTORS[name] * rel_tol
    return FamilyResult(name, max_residual, threshold, worst_point, n_points, n_errors, variant)


def run_validation(
    rel_tol: float = DEFAULT_ACCURACY.rel_tol,
    tail_tol: float = 1e-14,
    seed: int = 0,
    variant: str = cf.VARIANT_REDERIVED,
    random_points: int = 1000,
) -> list:
    """Run every validation family; returns a list of FamilyResult."""
    acc = SumAccuracy(rel_tol=rel_tol)
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(math.log(0.1), math.log(10.0), random_points))
    qs = rng.uniform(0.01, 0.9, random_points)

    # --- theta identities -------------------------------------------------
    def random_theta_points(residual):
        for x, q in zip(xs, qs):
            yield f"x={x:.6g}, q={q:.6g}", partial(residual, x, q)

    def symmetry(x, q):
        t = theta3(x, q, acc)
        return cf.relative_residual(theta3(1.0 / x, q, acc), t)

    def split(x, q):
        t = theta3(x, q, acc)
        halves = partial_theta(x, q, acc) + partial_theta(1.0 / x, q, acc) - 1.0
        return cf.relative_residual(halves, t)

    last_theta = -math.inf

    def rises(q):
        """0 when theta3(1, q) exceeds its value at the grid's previous q."""
        nonlocal last_theta
        t, before = theta3(1.0, q, acc), last_theta
        last_theta = t
        if t <= before:
            raise AnyonOttoError("not strictly increasing")
        return 0.0

    def monotonic_points():
        for q in np.linspace(0.02, 0.95, 60):
            yield f"q={q:.6g}", partial(rises, float(q))

    def gauss_vs_theta(lam, gamma):
        direct = gauss_sum_full(lam, gamma, 0.0, 0, acc)
        closed = math.exp(-lam * gamma * gamma) * theta3(
            math.exp(2.0 * lam * gamma), math.exp(-lam), acc
        )
        return cf.relative_residual(closed, direct)

    def gauss_points():
        for lam in (0.05, 0.2, 1.0, 5.0, 20.0):
            for gamma in (-5.0, -1.7, 0.0, 0.4, 2.3, 5.0):
                yield f"lam={lam:g}, gamma={gamma:g}", partial(gauss_vs_theta, lam, gamma)

    # --- closed forms against their oracles ---------------------------------
    def closed_form(form, *args):
        return lambda: form(*args, variant=variant).rel_residual

    def ring_partition_points():
        for lam in (0.05, 0.2, 1.0, 5.0, 20.0):
            for alpha in (0.0, 0.2, 0.5, 0.77, 1.0):
                point = f"lam={lam:g}, alpha={alpha:g}"
                yield point, closed_form(cf.ring_partition_closed, alpha, lam, 1.0, tail_tol, acc)

    def ring_energy_sum_points():
        for lam in (0.1, 0.5, 2.0, 8.0):
            for a_b in (0.0, 0.3, 0.7):
                for a_w in (0.15, 0.5, 0.9):
                    point = f"lam={lam:g}, boltz={a_b:g}, weight={a_w:g}"
                    yield point, closed_form(cf.ring_weighted_energy_sum, a_w, a_b, lam, 1.0, acc)

    def ring_efficiency_points():
        for alpha_h in (0.05, 0.2, 0.35):
            for alpha_l in (alpha_h + 0.15, alpha_h + 0.4):
                for beta_h in (0.1, 0.5, 1.5):
                    for mult in (4.0, 20.0):
                        beta_l = beta_h * mult
                        point = (
                            f"alpha_h={alpha_h:g}, alpha_l={alpha_l:g}, "
                            f"beta_h={beta_h:g}, beta_l={beta_l:g}"
                        )
                        args = (alpha_h, alpha_l, beta_h, beta_l, 1.0, tail_tol, acc)
                        yield point, closed_form(cf.ring_efficiency_closed, *args)

    def cs_partition_points():
        for c in (0.05, 0.2, 1.0, 5.0, 20.0):
            beta = c / math.pi**2  # L = 1
            for alpha in (0.0, 0.3, 0.5, 0.8, 1.0):
                point = f"beta*pi^2/L^2={c:g}, alpha={alpha:g}"
                yield point, closed_form(cf.cs_partition_closed, alpha, beta, 1.0, tail_tol, acc)

    def cs_energy_sum_points():
        for c in (0.2, 1.0, 5.0):
            beta = c / math.pi**2
            for a_b in (0.0, 0.5, 1.0):
                for a_w in (0.0, 0.4, 1.0):
                    point = f"beta*pi^2/L^2={c:g}, boltz={a_b:g}, weight={a_w:g}"
                    args = (a_w, a_b, beta, 1.0, tail_tol, acc)
                    yield point, closed_form(cf.cs_weighted_energy_sum, *args)

    def cs_efficiency_points():
        for alpha1, alpha2 in ((0.0, 1.0), (0.0, 0.5), (0.2, 0.8), (0.5, 1.0)):
            for beta_h, beta_l in ((0.05, 0.1), (0.02, 0.08), (0.1, 0.3)):
                point = (
                    f"alpha1={alpha1:g}, alpha2={alpha2:g}, beta_h={beta_h:g}, beta_l={beta_l:g}"
                )
                args = (alpha1, alpha2, beta_h, beta_l, 1.0, tail_tol, acc)
                yield point, closed_form(cf.cs_efficiency_closed, *args)

    # --- the volume cycle against its analytic efficiency --------------------
    def cs_volume(l1, l2, alpha):
        rep = run_cycle(OttoCycleSpec.cs_volume_cycle(l1, l2, alpha, 0.05, 0.2, tail_tol))
        return cf.relative_residual(rep.efficiency, efficiency_cs_volume(l1, l2))

    def cs_volume_points():
        for l1 in (1.0, 1.5, 2.0):
            for ratio in (0.3, 0.6, 0.9):
                l2 = l1 * ratio
                for alpha in (0.0, 0.5):
                    point = f"L1={l1:g}, L2={l2:g}, alpha={alpha:g}"
                    yield point, partial(cs_volume, l1, l2, alpha)

    rederived = cf.VARIANT_REDERIVED
    return [
        _family("theta-symmetry", rederived, rel_tol, random_theta_points(symmetry)),
        _family("theta-split", rederived, rel_tol, random_theta_points(split)),
        _family("theta-monotonic", rederived, rel_tol, monotonic_points()),
        _family("gauss-vs-theta", rederived, rel_tol, gauss_points()),
        _family("ring-partition", variant, rel_tol, ring_partition_points()),
        _family("ring-energy-sum", variant, rel_tol, ring_energy_sum_points()),
        _family("ring-efficiency", variant, rel_tol, ring_efficiency_points()),
        _family("cs-partition", variant, rel_tol, cs_partition_points()),
        _family("cs-energy-sum", variant, rel_tol, cs_energy_sum_points()),
        _family("cs-efficiency", variant, rel_tol, cs_efficiency_points()),
        _family("cs-volume", rederived, rel_tol, cs_volume_points()),
    ]
