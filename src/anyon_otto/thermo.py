"""Gibbs ensembles on truncated level sets and the heat/work bookkeeping.

The equilibrium state at inverse temperature beta populates level n with
P_n proportional to exp(-beta E_n); internal energy is E = sum P_n E_n and
the von Neumann entropy (kB = 1) is S = -sum P_n ln P_n.  ``boltzmann``
builds every per-level Gibbs state in one pass: one argmin for the ground,
the weights relative to it (``_ground_weights``, exponents in range), their
normalization, and ln Z' of the shifted weights from the ground's population.
Every entropy is S = beta <E - E_ground> + ln Z' (``_gibbs_entropy``).  The
reported log partition function is for the unshifted energies.

A change of the ensemble's energy splits into heat (population change at
fixed levels) and work (level shifts at fixed populations).  The cycle
builds no path: its strokes hold the levels or the populations fixed, so
their sums telescope to endpoint dot products (``otto.CycleReport.strokes``).
The discretized paths (PathStep lists) and ``heat_work_split``, whose
midpoint pairing makes Q + W telescope at any step count, are only the
stepped reference the tests check that ledger against.
"""

from __future__ import annotations

import contextlib
import marshal
import math
import numbers
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .spectra import LevelSet, enumerate_levels, frozen_array

__all__ = [
    "GibbsEnsemble",
    "PathStep",
    "DEFAULT_TAIL_TOL",
    "boltzmann",
    "sum_of_products",
    "ensemble_from_levels",
    "gibbs",
    "partition_function",
    "entropy",
    "heat_work_split",
    "gibbs_isochore_path",
    "linear_isochore_path",
    "adiabat_path",
]

DEFAULT_TAIL_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class GibbsEnsemble:
    """Thermal state on a truncated level set.

    ``populations`` is a read-only float64 array in the level set's order.
    ``logZ`` refers to the unshifted energies: logZ = log(sum exp(-beta E)).
    Populations are normalized over the retained levels only; the level set's
    tail bound certifies what that truncation can cost.
    """

    levels: LevelSet
    beta: float
    populations: np.ndarray
    logZ: float

    @property
    def internal_energy(self) -> float:
        """Mean energy sum P_n E_n, in numpy's pairwise order (no BLAS threads)."""
        return float(np.sum(self.populations * self.levels.energies))

    @property
    def entropy(self) -> float:
        """Von Neumann entropy -sum P ln P, as beta <E - E_ground> + ln Z' (``_gibbs_entropy``)."""
        energies = self.levels.energies
        ground = int(energies.argmin())
        log_z = _log_shifted_partition(self.populations, ground)
        return _gibbs_entropy(self.beta, energies, self.populations, energies[ground], log_z)


def _ground_weights(energies: np.ndarray, beta: float, out: np.ndarray = None, e0=None) -> tuple:
    """(exp(-beta (E - E_min)), E_min): every Gibbs weight of a level array, exponents in range.

    The weights are written into ``out`` when one is given.  ``e0`` is the
    least energy where the caller already knows it; else it is found.  An
    exponent past the double range is -inf, a weight of 0, without a warning.
    """
    if e0 is None:
        e0 = energies.min()
    weights = np.subtract(energies, e0, out=out)
    with np.errstate(over="ignore"):
        weights *= -beta
    return np.exp(weights, out=weights), e0


def boltzmann(energies: np.ndarray, beta: float, out: np.ndarray = None) -> tuple:
    """(populations, E_ground, ln Z') of the Gibbs state at beta on the levels ``energies``.

    The populations are the ground-shifted weights normalized over
    ``energies``, written into ``out`` when one is given; ln Z' is the log of
    the ground-shifted weights' sum, so logZ = ln Z' - beta E_ground.
    """
    ground = int(energies.argmin())
    weights, e0 = _ground_weights(energies, beta, out, energies[ground])
    weights /= float(weights.sum())
    # The ground's shifted weight is exp(0) = 1, so its population is 1/Z'.
    return weights, e0, _log_shifted_partition(weights, ground)


# Elements per block in sum_of_products: 32 kB temporaries, which the
# allocator serves from its heap instead of mapping fresh pages per call.
_SUM_BLOCK = 4096
# At most this many products go to math.fsum, which on so few takes less
# time than the extraction's numpy passes.
_FSUM_SIZE = 128


def sum_of_products(a: np.ndarray, b: np.ndarray, shift: float = 0.0) -> float:
    """sum (a_n - shift) b_n: each product rounded once, their sum as good as ``math.fsum``'s.

    ``shift`` is subtracted inside the one product temporary, so a shifted sum
    allocates nothing more; a - 0.0 is a bit for bit, so the unshifted sum
    keeps its bits.

    One exact extraction (Rump's ExtractVector) splits each product x into
    hi + lo.  sigma is a power of two with n max|x| < sigma / 2, so every hi is
    a multiple of sigma 2^-53 below sigma and their sum is exact in any
    order; the lo parts are below sigma 2^-52, so their pairwise ``np.sum``
    errs by at most about n^2 log2(n) eps^2 max|x|.  The result is the correctly
    rounded sum of the products except within that distance of a tie, and
    no step depends on the BLAS thread count.  Products so large that sigma
    would overflow, and non-finite ones, get the plain pairwise ``np.sum``.
    Up to ``_FSUM_SIZE`` products go to ``math.fsum``, which rounds their sum
    correctly: the same result, except near a tie.
    """
    x = np.subtract(a, shift)
    x *= b
    x = x.ravel()
    if x.size <= _FSUM_SIZE:
        try:
            return math.fsum(x.tolist())
        except (OverflowError, ValueError):  # a partial sum past the double range, or inf - inf
            return float(x.sum())
    m = max(float(x.max()), -float(x.min())) if x.size else 0.0
    if not 0.0 < m < math.inf:
        return float(x.sum())
    try:
        sigma = math.ldexp(1.0, math.frexp(m)[1] + (x.size + 1).bit_length() + 1)
    except OverflowError:
        return float(x.sum())
    high = 0.0
    for start in range(0, x.size, _SUM_BLOCK):
        part = x[start:start + _SUM_BLOCK]
        hi = part + sigma
        hi -= sigma
        high += float(hi.sum())
        part -= hi  # x now holds the lo parts
    return high + float(x.sum())


def ensemble_from_levels(levels: LevelSet, beta: float) -> GibbsEnsemble:
    """Build the Gibbs state for an already enumerated level set."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if levels.energies.size == 0:
        raise DomainError("cannot build an ensemble on an empty level set")
    populations, e0, log_z = boltzmann(levels.energies, beta)
    return GibbsEnsemble(
        levels=levels,
        beta=float(beta),
        populations=frozen_array(populations),
        logZ=log_z - beta * e0,
    )


def gibbs(spec, beta: float, tail_tol: float = DEFAULT_TAIL_TOL) -> GibbsEnsemble:
    """Equilibrium ensemble of a spectrum at inverse temperature beta."""
    return ensemble_from_levels(enumerate_levels(spec, beta, tail_tol), beta)


# The results kept by the innermost open ``_sharing`` scope; None outside one.
_SCOPE: ContextVar = ContextVar("anyon_otto_shared", default=None)
_PLAIN = (float, int, str)


@contextlib.contextmanager
def _sharing():
    """Keep every ``_shared`` result until the scope exits, also by an exception.

    One scope serves one command: a ``sweep_efficiency`` call, an
    ``anyon-otto sweep`` or a ``validate`` run.  It lives in a ``ContextVar``,
    so each thread has its own and concurrent use needs no locking.  As a
    decorator it opens a fresh scope per call.
    """
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _shared(compute, *args):
    """``compute(*args)``, kept for the open ``_sharing`` scope; computed afresh outside one.

    Arguments are floats, ints, strings, or dataclasses of them (spectra,
    ``SumAccuracy``); they are matched by their ``marshal`` bytes, a
    dataclass by its field dict.  That compares floats bit for bit, so it
    tells -0.0 from 0.0 where == does not, and formats nothing.  Format
    version 2 writes no back-references, so equal arguments give equal bytes
    whether or not they are one object.  A computation that raised keeps
    nothing.
    """
    results = _SCOPE.get()
    if results is None:
        return compute(*args)
    key = (compute, _arguments_key(*args))
    if key not in results:
        results[key] = compute(*args)
    return results[key]


def _arguments_key(*args) -> bytes:
    """The bytes ``_shared`` matches ``args`` by: equal exactly where they agree bit for bit."""
    return marshal.dumps([a if isinstance(a, _PLAIN) else vars(a) for a in args], 2)


def partition_function(spec, beta: float, tail_tol: float = DEFAULT_TAIL_TOL) -> float:
    """Truncated partition function by direct summation over enumerated levels.

    This is the summation oracle for the theta-function closed forms: no
    theta identity enters, only exp(-beta E) term by term (``_boltzmann_sum``).
    The levels are enumerated in label order, so none is sorted, and once
    per ``_sharing`` scope (``_shared``).
    """
    return _boltzmann_sum(_shared(enumerate_levels, spec, beta, tail_tol, "label"), beta)


def _boltzmann_sum(levels: LevelSet, beta: float, values: np.ndarray = None) -> float:
    """sum v exp(-beta E) over ``levels``, v = ``values`` level by level, or 1 where None.

    The weights are evaluated against the ground state for range and the sum
    rescaled by exp(-beta E_ground): 0.0 where that underflows a double.
    """
    weights, e0 = _ground_weights(levels.energies, beta)
    if values is not None:
        weights *= values
    return float(weights.sum() * math.exp(-beta * e0))


def _log_shifted_partition(populations: np.ndarray, ground: int) -> float:
    """ln Z' = -ln P_ground of normalized populations whose largest is ``populations[ground]``.

    Where P_ground > 1/2 it is log1p of the excited weights' sum, sum over
    n != ground of P_n / P_ground, which is never formed as Z' - 1 and so
    keeps its digits where Z' rounds to 1.  The window of a state that cold
    holds few levels, so that sum runs over a Python list.
    """
    p0 = float(populations[ground])
    if p0 <= 0.5:
        return -math.log(p0)
    excited = populations.tolist()
    excited[ground] = 0.0
    return math.log1p(sum(excited) / p0)


def _gibbs_entropy(beta: float, energies, populations, shift: float, log_z: float) -> float:
    """-sum P ln P of a Gibbs state, as beta sum (E - shift) P + ln Z'.

    ``shift`` is the ground energy and ``log_z`` the log of the partition sum
    of the weights shifted to it, so no population's log is taken and the
    ground's term keeps its digits where P_ground rounds to 1.
    """
    return beta * sum_of_products(energies, populations, shift) + log_z


def entropy(ensemble: GibbsEnsemble) -> float:
    """Von Neumann entropy -sum P ln P of the ensemble (``GibbsEnsemble.entropy``)."""
    return ensemble.entropy


def require_step_count(n, name: str) -> None:
    """Raise DomainError unless ``n`` is an integer >= 1 (a float, even 2.0, is not)."""
    if not isinstance(n, numbers.Integral):
        raise DomainError(f"{name} must be an integer >= 1, got {n!r}")
    if n < 1:
        raise DomainError(f"{name} must be >= 1, got {n}")


@dataclass(frozen=True)
class PathStep:
    """One discretization step: levels and populations before and after.

    All four lists follow one label order; only values are stored because
    every consumer works on a fixed common label set.
    """

    energies_before: tuple
    energies_after: tuple
    populations_before: tuple
    populations_after: tuple

    def __post_init__(self):
        n = len(self.energies_before)
        if not (
            len(self.energies_after) == n
            and len(self.populations_before) == n
            and len(self.populations_after) == n
        ):
            raise ShapeError("all four PathStep lists must have equal length")


def heat_work_split(path: Sequence[PathStep]) -> tuple:
    """Split the energy change along a discretized path into (Q, W).

    Per step, dQ = sum dP * E_mid and dW = sum P_mid * dE with midpoint
    (trapezoidal) pairing, so Q + W equals the total energy change exactly
    up to floating-point roundoff.  The path is stacked into (steps, levels)
    arrays and each total is one ``sum_of_products``, the reduction the cycle
    uses.
    Steps must share one label set; a path whose steps disagree in length
    raises ShapeError.
    """
    steps = list(path)
    if len({len(step.energies_before) for step in steps}) > 1:
        raise ShapeError("steps along one path must share a label set")
    eb = np.array([step.energies_before for step in steps], dtype=float)
    ea = np.array([step.energies_after for step in steps], dtype=float)
    pb = np.array([step.populations_before for step in steps], dtype=float)
    pa = np.array([step.populations_after for step in steps], dtype=float)
    q = sum_of_products(pa - pb, (ea + eb) * 0.5)
    w = sum_of_products((pa + pb) * 0.5, ea - eb)
    return q, w


def gibbs_isochore_path(
    spec,
    beta_start: float,
    beta_end: float,
    n_steps: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> list:
    """Sequence-of-baths isochore: equilibrium populations at each grid beta.

    Levels are enumerated once at the hotter endpoint (the larger level set)
    and held fixed; the energies never change along the path, so W = 0
    exactly and Q equals the endpoint energy difference.
    """
    require_step_count(n_steps, "n_steps")
    energies = enumerate_levels(spec, min(beta_start, beta_end), tail_tol).energies
    e_tuple = tuple(float(e) for e in energies)
    betas = np.linspace(beta_start, beta_end, n_steps + 1)
    pops = [tuple(float(v) for v in boltzmann(energies, float(b))[0]) for b in betas]
    return [PathStep(e_tuple, e_tuple, p0, p1) for p0, p1 in zip(pops, pops[1:])]


def linear_isochore_path(energies, pops_start, pops_end, n_steps: int) -> list:
    """Isochore with populations interpolated linearly between two states."""
    require_step_count(n_steps, "n_steps")
    e_tuple = tuple(float(e) for e in energies)
    p0 = np.asarray(pops_start, dtype=float)
    p1 = np.asarray(pops_end, dtype=float)
    if p0.size != len(e_tuple) or p1.size != len(e_tuple):
        raise ShapeError("population and energy lists must share a label set")
    steps = []
    prev = tuple(float(v) for v in p0)
    for k in range(1, n_steps + 1):
        t = k / n_steps
        cur = tuple(float(v) for v in (1.0 - t) * p0 + t * p1)
        steps.append(PathStep(e_tuple, e_tuple, prev, cur))
        prev = cur
    return steps


def adiabat_path(energy_grids: Sequence, populations) -> list:
    """Adiabat through a sequence of energy lists at fixed populations.

    ``energy_grids`` holds the level energies at successive control values
    (at least two entries); populations are carried unchanged, so Q = 0
    exactly and W telescopes to sum P (E_final - E_initial).
    """
    if len(energy_grids) < 2:
        raise DomainError("an adiabat needs at least two energy grids")
    p = tuple(float(v) for v in populations)
    steps = []
    prev = tuple(float(e) for e in energy_grids[0])
    for grid in energy_grids[1:]:
        cur = tuple(float(e) for e in grid)
        if len(cur) != len(p) or len(prev) != len(p):
            raise ShapeError("energy grids must match the population label set")
        steps.append(PathStep(prev, cur, p, p))
        prev = cur
    return steps
