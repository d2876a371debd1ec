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

import numpy as np

from . import closed_form as cf
from .errors import AnyonOttoError
from .otto import OttoCycleSpec, efficiency_cs_volume, run_cycle
from .special_functions import SumAccuracy, gauss_sum_full, partial_theta, theta3

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


class _Family:
    def __init__(self, name: str, threshold: float, variant: str):
        self.name = name
        self.threshold = threshold
        self.variant = variant
        self.max_residual = 0.0
        self.worst_point = ""
        self.n_points = 0
        self.n_errors = 0

    def add(self, residual: float, point: str):
        self.n_points += 1
        if residual > self.max_residual:
            self.max_residual = residual
            self.worst_point = point

    def error(self, message: str, point: str):
        self.n_points += 1
        self.n_errors += 1
        self.max_residual = math.inf
        self.worst_point = f"{point} ({message})"

    def result(self) -> FamilyResult:
        return FamilyResult(
            name=self.name,
            max_residual=self.max_residual,
            threshold=self.threshold,
            worst_point=self.worst_point,
            n_points=self.n_points,
            n_errors=self.n_errors,
            formula_variant=self.variant,
        )


def run_validation(
    rel_tol: float = 1e-12,
    tail_tol: float = 1e-14,
    seed: int = 0,
    variant: str = cf.VARIANT_REDERIVED,
    random_points: int = 1000,
) -> list:
    """Run every validation family; returns a list of FamilyResult."""
    acc = SumAccuracy(rel_tol=rel_tol)
    rng = np.random.default_rng(seed)
    results = []

    def family(name: str, applies_variant: bool = False) -> _Family:
        v = variant if applies_variant else cf.VARIANT_REDERIVED
        return _Family(name, THRESHOLD_FACTORS[name] * rel_tol, v)

    # --- theta identities -------------------------------------------------
    xs = np.exp(rng.uniform(math.log(0.1), math.log(10.0), random_points))
    qs = rng.uniform(0.01, 0.9, random_points)

    fam = family("theta-symmetry")
    for x, q in zip(xs, qs):
        t = theta3(x, q, acc)
        fam.add(cf.relative_residual(theta3(1.0 / x, q, acc), t), f"x={x:.6g}, q={q:.6g}")
    results.append(fam.result())

    fam = family("theta-split")
    for x, q in zip(xs, qs):
        t = theta3(x, q, acc)
        split = partial_theta(x, q, acc) + partial_theta(1.0 / x, q, acc) - 1.0
        fam.add(cf.relative_residual(split, t), f"x={x:.6g}, q={q:.6g}")
    results.append(fam.result())

    fam = family("theta-monotonic")
    prev = None
    for q in np.linspace(0.02, 0.95, 60):
        t = theta3(1.0, float(q), acc)
        if prev is not None and t <= prev:
            fam.error("not strictly increasing", f"q={q:.6g}")
        else:
            fam.add(0.0, f"q={q:.6g}")
        prev = t
    results.append(fam.result())

    fam = family("gauss-vs-theta")
    for lam in (0.05, 0.2, 1.0, 5.0, 20.0):
        for gamma in (-5.0, -1.7, 0.0, 0.4, 2.3, 5.0):
            direct = gauss_sum_full(lam, gamma, 0.0, 0, acc)
            closed = math.exp(-lam * gamma * gamma) * theta3(
                math.exp(2.0 * lam * gamma), math.exp(-lam), acc
            )
            fam.add(cf.relative_residual(closed, direct), f"lam={lam:g}, gamma={gamma:g}")
    results.append(fam.result())

    # --- ring closed forms -------------------------------------------------
    fam = family("ring-partition", applies_variant=True)
    for lam in (0.05, 0.2, 1.0, 5.0, 20.0):
        for alpha in (0.0, 0.2, 0.5, 0.77, 1.0):
            point = f"lam={lam:g}, alpha={alpha:g}"
            try:
                rep = cf.ring_partition_closed(
                    alpha, lam, 1.0, tail_tol, acc, variant=fam.variant
                )
                fam.add(rep.rel_residual, point)
            except AnyonOttoError as exc:
                fam.error(str(exc), point)
    results.append(fam.result())

    fam = family("ring-energy-sum", applies_variant=True)
    for lam in (0.1, 0.5, 2.0, 8.0):
        for a_b in (0.0, 0.3, 0.7):
            for a_w in (0.15, 0.5, 0.9):
                point = f"lam={lam:g}, boltz={a_b:g}, weight={a_w:g}"
                try:
                    rep = cf.ring_weighted_energy_sum(
                        a_w, a_b, lam, 1.0, acc, variant=fam.variant
                    )
                    fam.add(rep.rel_residual, point)
                except AnyonOttoError as exc:
                    fam.error(str(exc), point)
    results.append(fam.result())

    fam = family("ring-efficiency", applies_variant=True)
    for alpha_h in (0.05, 0.2, 0.35):
        for alpha_l in (alpha_h + 0.15, alpha_h + 0.4):
            for beta_h in (0.1, 0.5, 1.5):
                for mult in (4.0, 20.0):
                    beta_l = beta_h * mult
                    point = (
                        f"alpha_h={alpha_h:g}, alpha_l={alpha_l:g}, "
                        f"beta_h={beta_h:g}, beta_l={beta_l:g}"
                    )
                    try:
                        rep = cf.ring_efficiency_closed(
                            alpha_h,
                            alpha_l,
                            beta_h,
                            beta_l,
                            1.0,
                            tail_tol,
                            acc,
                            variant=fam.variant,
                        )
                        fam.add(rep.rel_residual, point)
                    except AnyonOttoError as exc:
                        fam.error(str(exc), point)
    results.append(fam.result())

    # --- pair closed forms ---------------------------------------------------
    fam = family("cs-partition", applies_variant=True)
    for c in (0.05, 0.2, 1.0, 5.0, 20.0):
        beta = c / math.pi**2  # L = 1
        for alpha in (0.0, 0.3, 0.5, 0.8, 1.0):
            point = f"beta*pi^2/L^2={c:g}, alpha={alpha:g}"
            try:
                rep = cf.cs_partition_closed(
                    alpha, beta, 1.0, tail_tol, acc, variant=fam.variant
                )
                fam.add(rep.rel_residual, point)
            except AnyonOttoError as exc:
                fam.error(str(exc), point)
    results.append(fam.result())

    fam = family("cs-energy-sum", applies_variant=True)
    for c in (0.2, 1.0, 5.0):
        beta = c / math.pi**2
        for a_b in (0.0, 0.5, 1.0):
            for a_w in (0.0, 0.4, 1.0):
                point = f"beta*pi^2/L^2={c:g}, boltz={a_b:g}, weight={a_w:g}"
                try:
                    rep = cf.cs_weighted_energy_sum(
                        a_w, a_b, beta, 1.0, tail_tol, acc, variant=fam.variant
                    )
                    fam.add(rep.rel_residual, point)
                except AnyonOttoError as exc:
                    fam.error(str(exc), point)
    results.append(fam.result())

    fam = family("cs-efficiency", applies_variant=True)
    for alpha1, alpha2 in ((0.0, 1.0), (0.0, 0.5), (0.2, 0.8), (0.5, 1.0)):
        for beta_h, beta_l in ((0.05, 0.1), (0.02, 0.08), (0.1, 0.3)):
            point = f"alpha1={alpha1:g}, alpha2={alpha2:g}, beta_h={beta_h:g}, beta_l={beta_l:g}"
            try:
                rep = cf.cs_efficiency_closed(
                    alpha1,
                    alpha2,
                    beta_h,
                    beta_l,
                    1.0,
                    tail_tol,
                    acc,
                    variant=fam.variant,
                )
                fam.add(rep.rel_residual, point)
            except AnyonOttoError as exc:
                fam.error(str(exc), point)
    results.append(fam.result())

    fam = family("cs-volume")
    for l1 in (1.0, 1.5, 2.0):
        for ratio in (0.3, 0.6, 0.9):
            l2 = l1 * ratio
            for alpha in (0.0, 0.5):
                point = f"L1={l1:g}, L2={l2:g}, alpha={alpha:g}"
                try:
                    rep = run_cycle(
                        OttoCycleSpec.cs_volume_cycle(l1, l2, alpha, 0.05, 0.2, tail_tol)
                    )
                    analytic = efficiency_cs_volume(l1, l2)
                    fam.add(cf.relative_residual(rep.efficiency, analytic), point)
                except AnyonOttoError as exc:
                    fam.error(str(exc), point)
    results.append(fam.result())

    return results
