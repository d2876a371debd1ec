"""Closed-form-versus-oracle validation grids.

Each family evaluates one identity over a parameter grid and records the
worst relative residual.  Thresholds scale with the series tolerance in use
down to ``THRESHOLD_REL_TOL_FLOOR``, so loosening ``rel_tol`` loosens the
gates proportionally.  The CLI
``validate`` subcommand prints one line per family and fails (exit 3) when
any family exceeds its threshold; pointing ``formula_variant`` at one of the
printed variants is expected to fail and names the variant in the summary.
One ``thermo._sharing`` scope serves the whole run (see ``run_validation``),
so the output is that of computing every point afresh, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, product

import numpy as np

from . import closed_form as cf
from .errors import AnyonOttoError
from .otto import OttoCycleSpec, efficiency_cs_volume, run_cycle
from .special_functions import (
    DEFAULT_ACCURACY,
    SumAccuracy,
    _batch_lam,
    _batch_log_x,
    _theta_batch_logs,
    gauss_sum_full,
    theta3,
)
from .thermo import _sharing

__all__ = ["FamilyResult", "run_validation", "THRESHOLD_FACTORS", "THRESHOLD_REL_TOL_FLOOR"]

# Family threshold = factor * max(rel_tol, THRESHOLD_REL_TOL_FLOOR).  At the
# default rel_tol = 1e-12 these give 2e-12 / 4e-12 / 1e-11 for the theta
# identities, 1e-10 for partition functions and weighted sums, and 1e-9 for
# assembled efficiencies.
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

# Below this rel_tol the residuals are rounding-limited: on seeds 0-3 and
# 2024 no family's worst residual moves by more than 17% between rel_tol
# 1e-14 and 1e-17, and at 1e-14 each passes with at least 10x margin.  A
# tighter rel_tol still tightens the sums but no longer the thresholds.
THRESHOLD_REL_TOL_FLOOR = 1e-14


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


def _family(name: str, variant: str, rel_tol: float, label: str, residual, grid) -> FamilyResult:
    """Check one identity at each point of ``grid``, a sequence of argument tuples.

    ``residual(*args)`` returns the point's relative residual and
    ``label.format(*args)`` names the point; a label is formatted only for the
    point kept as the worst and for error points.  A residual that raises
    ``AnyonOttoError``, or is NaN, marks an error point: the family's
    residual becomes infinite, and the point and the message are named as
    the worst.
    """
    max_residual, worst_point, worst_args, n_points, n_errors = 0.0, "", None, 0, 0
    for args in grid:
        n_points += 1
        try:
            r = residual(*args)
            if r != r:
                raise AnyonOttoError("residual is NaN")
        except AnyonOttoError as exc:
            n_errors += 1
            max_residual, worst_point, worst_args = math.inf, f"{label.format(*args)} ({exc})", None
            continue
        if r > max_residual:
            max_residual, worst_args = r, args
    if worst_args is not None:
        worst_point = label.format(*worst_args)
    threshold = THRESHOLD_FACTORS[name] * max(rel_tol, THRESHOLD_REL_TOL_FLOOR)
    return FamilyResult(name, max_residual, threshold, worst_point, n_points, n_errors, variant)


def _relative_residuals(values: np.ndarray, oracles: np.ndarray) -> np.ndarray:
    """``cf.relative_residual`` per element: the same IEEE operations, so the same bits."""
    return np.abs(values - oracles) / np.maximum(np.abs(oracles), cf._TINY)


def _residuals(residuals: np.ndarray, *batches):
    """A family's residual function over the random points' precomputed ``residuals``.

    At a point where one of ``batches`` holds an error, the function raises
    the first such batch's error: ``batches`` come in the order that the
    family reads its series.
    """
    entries = residuals.tolist()
    for batch in reversed(batches):
        for i, exc in batch.errors.items():
            entries[i] = exc

    def residual(i, x, q):
        r = entries[i]
        if isinstance(r, AnyonOttoError):
            raise r
        return r

    return residual


@_sharing()
def run_validation(
    rel_tol: float = DEFAULT_ACCURACY.rel_tol,
    tail_tol: float = 1e-14,
    seed: int = 0,
    variant: str = cf.VARIANT_REDERIVED,
    random_points: int = 1000,
) -> list:
    """Run every validation family; returns a list of FamilyResult.

    The closed-form families and cs-volume share one ``thermo._sharing``
    scope: a closed form's per-isochore factors and series triples, a
    cycle's window searches and each partition and pair energy-sum oracle's
    level set, enumerated in label order, are each computed once per run,
    wherever the grids meet the same isochore again.  No family sorts a
    level set.
    """
    acc = SumAccuracy(rel_tol=rel_tol)
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(math.log(0.1), math.log(10.0), random_points))
    qs = rng.uniform(0.01, 0.9, random_points)

    # --- theta identities -------------------------------------------------
    # The random families read theta3 and partial theta at x and at 1/x from
    # one batch each (``_theta_batch_logs``), so each series is summed once per
    # random point and argument, from lam = -log(q) and the two arguments'
    # logs, each taken once.  Both families read theta3(x, q) first, so a
    # point where it raised is an error in both, with the same message.
    lam = _batch_lam(qs)
    args = [(a, _batch_log_x(a)) for a in (xs, 1.0 / xs)]
    theta_x, theta_inv, half_x, half_inv = (
        _theta_batch_logs(a, qs, lam, log_a, one_sided, acc)
        for one_sided in (False, True)
        for a, log_a in args
    )
    symmetry = _residuals(
        _relative_residuals(theta_inv.values, theta_x.values), theta_x, theta_inv
    )
    halves = half_x.values + half_inv.values - 1.0
    split = _residuals(_relative_residuals(halves, theta_x.values), theta_x, half_x, half_inv)

    last_theta = -math.inf

    def rises(q):
        """0 when theta3(1, q) exceeds its value at the grid's previous q."""
        nonlocal last_theta
        t, before = theta3(1.0, q, acc), last_theta
        if t != t:  # a NaN compares false both ways; the next point compares with before
            raise AnyonOttoError("theta3 is NaN")
        last_theta = t
        if t <= before:
            raise AnyonOttoError("not strictly increasing")
        return 0.0

    def gauss_vs_theta(lam, gamma):
        direct = gauss_sum_full(lam, gamma, 0.0, 0, acc)
        closed = math.exp(-lam * gamma * gamma) * theta3(
            math.exp(2.0 * lam * gamma), math.exp(-lam), acc
        )
        return cf.relative_residual(closed, direct)

    # --- closed forms against their oracles ---------------------------------
    def closed_form(form, *args):
        return form(*args, variant=variant).rel_residual

    def ring_partition(lam, alpha):
        return closed_form(cf.ring_partition_closed, alpha, lam, 1.0, tail_tol, acc)

    def ring_energy_sum(lam, a_b, a_w):
        return closed_form(cf.ring_weighted_energy_sum, a_w, a_b, lam, 1.0, acc)

    def ring_efficiency(*point):
        return closed_form(cf.ring_efficiency_closed, *point, 1.0, tail_tol, acc)

    def cs_partition(c, alpha):
        beta = c / math.pi**2  # L = 1
        return closed_form(cf.cs_partition_closed, alpha, beta, 1.0, tail_tol, acc)

    def cs_energy_sum(c, a_b, a_w):
        beta = c / math.pi**2
        return closed_form(cf.cs_weighted_energy_sum, a_w, a_b, beta, 1.0, tail_tol, acc)

    def cs_efficiency(*point):
        return closed_form(cf.cs_efficiency_closed, *point, 1.0, tail_tol, acc)

    # --- the volume cycle against its analytic efficiency --------------------
    def cs_volume(l1, l2, alpha):
        rep = run_cycle(OttoCycleSpec.cs_volume_cycle(l1, l2, alpha, 0.05, 0.2, tail_tol))
        return cf.relative_residual(rep.efficiency, efficiency_cs_volume(l1, l2))

    ring_efficiency_grid = [
        (alpha_h, alpha_l, beta_h, beta_h * mult)
        for alpha_h in (0.05, 0.2, 0.35)
        for alpha_l in (alpha_h + 0.15, alpha_h + 0.4)
        for beta_h in (0.1, 0.5, 1.5)
        for mult in (4.0, 20.0)
    ]
    cs_efficiency_grid = [
        alphas + betas
        for alphas in ((0.0, 1.0), (0.0, 0.5), (0.2, 0.8), (0.5, 1.0))
        for betas in ((0.05, 0.1), (0.02, 0.08), (0.1, 0.3))
    ]
    cs_volume_grid = [
        (l1, l1 * ratio, alpha)
        for l1 in (1.0, 1.5, 2.0)
        for ratio in (0.3, 0.6, 0.9)
        for alpha in (0.0, 0.5)
    ]
    lams = (0.05, 0.2, 1.0, 5.0, 20.0)
    theta_label = "x={1:.6g}, q={2:.6g}"
    rederived = cf.VARIANT_REDERIVED
    return [
        _family(
            "theta-symmetry", rederived, rel_tol, theta_label, symmetry,
            zip(count(), xs.tolist(), qs.tolist()),
        ),
        _family(
            "theta-split", rederived, rel_tol, theta_label, split,
            zip(count(), xs.tolist(), qs.tolist()),
        ),
        _family(
            "theta-monotonic", rederived, rel_tol, "q={:.6g}", rises,
            [(q,) for q in np.linspace(0.02, 0.95, 60).tolist()],
        ),
        _family(
            "gauss-vs-theta", rederived, rel_tol, "lam={:g}, gamma={:g}", gauss_vs_theta,
            product(lams, (-5.0, -1.7, 0.0, 0.4, 2.3, 5.0)),
        ),
        _family(
            "ring-partition", variant, rel_tol, "lam={:g}, alpha={:g}", ring_partition,
            product(lams, (0.0, 0.2, 0.5, 0.77, 1.0)),
        ),
        _family(
            "ring-energy-sum", variant, rel_tol, "lam={:g}, boltz={:g}, weight={:g}",
            ring_energy_sum, product((0.1, 0.5, 2.0, 8.0), (0.0, 0.3, 0.7), (0.15, 0.5, 0.9)),
        ),
        _family(
            "ring-efficiency", variant, rel_tol,
            "alpha_h={:g}, alpha_l={:g}, beta_h={:g}, beta_l={:g}",
            ring_efficiency, ring_efficiency_grid,
        ),
        _family(
            "cs-partition", variant, rel_tol, "beta*pi^2/L^2={:g}, alpha={:g}", cs_partition,
            product(lams, (0.0, 0.3, 0.5, 0.8, 1.0)),
        ),
        _family(
            "cs-energy-sum", variant, rel_tol, "beta*pi^2/L^2={:g}, boltz={:g}, weight={:g}",
            cs_energy_sum, product((0.2, 1.0, 5.0), (0.0, 0.5, 1.0), (0.0, 0.4, 1.0)),
        ),
        _family(
            "cs-efficiency", variant, rel_tol,
            "alpha1={:g}, alpha2={:g}, beta_h={:g}, beta_l={:g}",
            cs_efficiency, cs_efficiency_grid,
        ),
        _family(
            "cs-volume", rederived, rel_tol, "L1={:g}, L2={:g}, alpha={:g}", cs_volume,
            cs_volume_grid,
        ),
    ]
