"""Working-medium level families and certified level enumeration.

Two one-parameter spectra are provided, in natural units hbar = m = kB = 1:

* a charged particle on a flux-threaded ring,  E_n = eps0 (n - alpha)^2 with
  n in Z, where eps0 carries the 1/(2 m a^2) scale and alpha is the
  dimensionless flux / statistics parameter; and
* an interacting pair on a ring of size parameter L,
  E_{n1,n2} = pi^2 alpha^2 / L^2 + (2 pi^2 / L^2)(n1^2 + n2^2 + alpha(n1-n2))
  over integer pairs n1 <= n2.  The pair interaction strength
  pi^2 alpha(alpha-1)/L^2 is fully determined by (alpha, L) and is not stored
  separately; alpha = 0 gives free bosons and alpha = 1 free-fermion-like
  level spacing.

``enumerate_levels`` truncates either family to a finite LevelSet whose
omitted Boltzmann weight (measured relative to the ground state) is bounded
analytically, and which is downward closed: no omitted level lies below any
returned one.  Level sets hold integer label arrays: shape (N,) of n for the
ring, shape (N, 2) of (n1, n2) rows for the pair.  ``window_bounds`` runs the
same certified search but returns only each quantum number's label range,
and ``label_box`` joins two such ranges into the label box the Otto cycle
table sums over.

Both window searches return (label bounds, energy cut, tail bound) without
evaluating the window in bulk: the ring keeps an interval of n whole, from
three levels; the pair keeps the lattice points of a disk, whose ground
energy, label bounds and dropped edge weight follow from a few labels and
O(K) row tails.  ``enumerate_levels`` evaluates energies on the label box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, OrderingError
from .special_functions import _exp_round_up, _log_gauss_tail, _logaddexp, require_finite

__all__ = [
    "RingAnyonSpectrum",
    "CSPairSpectrum",
    "LevelSet",
    "enumerate_levels",
    "pauli_energy",
    "window_bounds",
]

# Safety inflation applied to tail certificates to absorb floating-point
# rounding in their own evaluation.
_CERT_SLACK = 1.0 + 1e-9
_EPS = np.finfo(float).eps

_RING_WINDOW_CAP = 1_000_000
_CS_WINDOW_CAP = 1_500

# Ring fluxes must stay below this in magnitude.  Past it a double has no
# fractional part left, and past 2^53 the window labels n lose their unit
# spacing when converted to float, so the window energies collapse.
RING_FLUX_LIMIT = 2.0**52


def pair_length_in_range(L: float) -> bool:
    """Whether L > 0 and the pair level unit pi^2 / L^2 is a finite positive double.

    Positive lengths near the ends of the double range fail too: L^2
    underflows to 0 below about 2.2e-162, pi^2 / L^2 overflows below about
    2.3e-154, and L^2 overflows above about 1.3e154.
    """
    if not L > 0.0:
        return False
    square = L * L
    return 0.0 < square < math.inf and math.pi**2 / square < math.inf


def require_pair_length(L: float) -> None:
    """Raise DomainError unless ``pair_length_in_range(L)``, naming why."""
    if not L > 0.0:
        raise DomainError(f"L must be positive, got {L}")
    if not pair_length_in_range(L):
        raise DomainError(f"L must keep pi^2/L^2 a finite positive double, got {L}")


def require_tail_tol(tail_tol: float) -> None:
    """Raise DomainError unless the enumeration tolerance lies in (0, 1).

    Each window's first guess is a square root over log(1/tail_tol), which
    turns negative once the tolerance reaches 1.
    """
    if not 0.0 < tail_tol < 1.0:
        raise DomainError(f"tail_tol must lie in (0, 1), got {tail_tol}")


@dataclass(frozen=True)
class RingAnyonSpectrum:
    """Flux-ring anyon levels E_n = eps0 (n - alpha)^2, n in Z.

    The eigenvalue SET is invariant under alpha -> alpha + 1 (relabel
    n -> n + 1) and under alpha -> -alpha (relabel n -> -n).  |alpha| must
    stay below RING_FLUX_LIMIT = 2^52.
    """

    eps0: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        require_finite(eps0=self.eps0, alpha=self.alpha)
        if not self.eps0 > 0.0:
            raise DomainError(f"eps0 must be positive, got {self.eps0}")
        if not abs(self.alpha) < RING_FLUX_LIMIT:
            raise DomainError(f"alpha must satisfy |alpha| < 2^52, got {self.alpha}")

    def energy(self, n: int) -> float:
        # Squared by multiplication, as numpy squares in ``energies``: a
        # level's energy must not depend on which of the two computed it.
        d = n - self.alpha
        return self.eps0 * (d * d)

    def energies(self, n: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """E at each label of ``n``, written into ``out`` when one is given.

        Integer labels are converted to float inside the subtraction, exactly
        (|n| < 2^53), so no float copy of them is made.
        """
        d = np.subtract(n, self.alpha, out=out, dtype=float)
        d *= d
        d *= self.eps0
        return d


@dataclass(frozen=True)
class CSPairSpectrum:
    """Interacting two-anyon levels on a ring of size parameter L.

    In center-of-mass / relative coordinates m = n1 + n2, n = n2 - n1 >= 0
    (m and n share parity) the energy is (pi^2/L^2) (m^2 + (n - alpha)^2),
    which is what the closed-form machinery exploits.
    """

    L: float
    alpha: float

    def __post_init__(self):
        require_finite(L=self.L, alpha=self.alpha)
        require_pair_length(self.L)
        if self.alpha < 0.0:
            raise DomainError(f"alpha must be >= 0, got {self.alpha}")

    def _square_error(self) -> DomainError:
        """The error of ``energy`` and ``energies`` where alpha^2 leaves the double range."""
        return DomainError(f"alpha^2 leaves the double range, got alpha={self.alpha}")

    def _unit_offset(self) -> tuple:
        """(pi^2/L^2, pi^2 alpha^2/L^2): the level unit and the energy's constant term."""
        unit = math.pi**2 / self.L**2
        try:
            return unit, unit * self.alpha**2
        except OverflowError:
            raise self._square_error() from None

    def energy(self, n1: int, n2: int) -> float:
        if n1 > n2:
            raise OrderingError(f"require n1 <= n2, got ({n1}, {n2})")
        return _pair_energy(*self._unit_offset(), self.alpha, n1, n2)

    def energies(
        self, n1: np.ndarray, n2: np.ndarray, out: np.ndarray = None, scratch=None
    ) -> np.ndarray:
        """E at each label (n1, n2), written into ``out`` when one is given.

        ``scratch``, a float64 array of the labels' length, holds the one
        intermediate term, which is allocated when none is given.  The
        operations are ``energy``'s, in its order, so the two agree bit for bit.
        """
        unit, offset = self._unit_offset()
        n1 = np.asarray(n1, dtype=float)
        n2 = np.asarray(n2, dtype=float)
        e = np.multiply(n1, n1, out=out)
        term = np.multiply(n2, n2, out=scratch)
        e += term
        np.subtract(n1, n2, out=term)
        term *= self.alpha
        e += term
        e *= 2.0 * unit
        e += offset
        return e

    def split_energies(self, rows: np.ndarray, cols: np.ndarray) -> tuple:
        """(constant, terms): E(n1, n2) = constant + A(n1) + B(n2) on ``rows`` x ``cols``.

        With unit = pi^2/L^2, x = n1 + alpha/2 and y = n2 - alpha/2, the energy
        is 2 unit (x^2 + y^2).  A is the x term less its least value over
        ``rows``, taken at the row r nearest -alpha/2, and B the y term less its
        least over ``cols``, at the column c nearest alpha/2.  Both are
        evaluated in factored form, A(n) = 2 unit (n - r)(n + r + alpha) and
        B(n) = 2 unit (n - c)(n + c - alpha), so each keeps its own relative
        accuracy, and constant = E(r, c).  ``terms`` holds A on ``rows``, then B
        on ``cols``.  As alpha >= 0, r <= 0 <= c: where the two windows'
        grounds are in the labels, E(r, c) is the least level.  Labels given
        as float arrays are only read, not copied.
        """
        unit, _ = self._unit_offset()
        half = 0.5 * self.alpha
        rows = np.asarray(rows, dtype=float)
        cols = np.asarray(cols, dtype=float)
        r = rows[np.abs(rows + half).argmin()]
        c = cols[np.abs(cols - half).argmin()]
        k = len(rows)
        terms, shifted = np.empty((2, k + len(cols)))
        np.add(rows, r, out=terms[:k])
        np.add(cols, c, out=terms[k:])
        terms[:k] += self.alpha
        terms[k:] -= self.alpha
        np.subtract(rows, r, out=shifted[:k])
        np.subtract(cols, c, out=shifted[k:])
        terms *= shifted
        terms *= 2.0 * unit
        x, y = r + half, c - half
        return 2.0 * unit * (x * x + y * y), terms

    def term_bound(self, energy: float) -> float:
        """A bound on the magnitudes of the terms ``energies`` adds up for a level of ``energy``.

        The terms are unit alpha^2, 2 unit n1^2, 2 unit n2^2 and 2 unit alpha (n1 - n2).
        With n2 - n1 = y - x + alpha and 4 alpha |x| <= 2 x^2 + 2 alpha^2, their
        magnitudes add to at most 2 E + 8 unit alpha^2.
        """
        return 2.0 * energy + 8.0 * self._unit_offset()[1]


def frozen_array(values, dtype=None) -> np.ndarray:
    """``values`` as a read-only ndarray (no copy when it already is one)."""
    arr = np.asarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _label_span(lo_b: int, hi_b: int, lo_a: int, hi_a: int) -> tuple:
    """The integers of [lo_b, hi_b] and [lo_a, hi_a] as ascending disjoint (lo, hi) intervals.

    One interval when the two overlap or touch, two otherwise, so two
    far-apart windows never span the labels between them.
    """
    (lo1, hi1), (lo2, hi2) = sorted(((lo_b, hi_b), (lo_a, hi_a)))
    if lo2 <= hi1 + 1:
        return ((lo1, max(hi1, hi2)),)
    return ((lo1, hi1), (lo2, hi2))


def label_spans(bounds_b: tuple, bounds_a: tuple) -> tuple:
    """Per quantum number, the union of its label intervals in two ``window_bounds``.

    Each is one or two ascending (lo, hi) intervals (``_label_span``); two
    pairs of windows with equal spans have equal label boxes.
    """
    return tuple([_label_span(*b, *a) for b, a in zip(bounds_b, bounds_a)])


def span_labels(span: tuple) -> np.ndarray:
    """The integers of a ``label_spans`` entry, ascending."""
    if len(span) == 1:
        return np.arange(span[0][0], span[0][1] + 1)
    return np.concatenate([np.arange(lo, hi + 1) for lo, hi in span])


def label_ranges(bounds_b: tuple, bounds_a: tuple) -> list:
    """Per quantum number, the ascending union of its label intervals in two ``window_bounds``.

    The ring's is its range of n; the pair's are its rows n1 and its columns n2.
    """
    return [span_labels(span) for span in label_spans(bounds_b, bounds_a)]


def label_box(bounds_b: tuple, bounds_a: tuple) -> tuple:
    """The label box of two level sets given by their ``window_bounds``: (labels, columns).

    Each quantum number takes the union of its two label intervals.  The
    ring's box is that range of n; the pair's is its rows n1 by its columns
    n2, restricted to n1 <= n2, in row-major order.  Either way the labels
    ascend and the box holds every level of both sets.  The ring's box holds
    no label outside the two enumeration windows, and the pair's lies inside
    the larger window.  ``columns`` holds the labels' quantum-number columns,
    (n,) or (n1, n2), as views of ``labels`` that ``spec.energies`` takes.
    """
    ranges = label_ranges(bounds_b, bounds_a)
    if len(ranges) == 1:
        return ranges[0], (ranges[0],)
    labels = _upper_pairs(*ranges)
    return labels, tuple(labels.T)


def _upper_pairs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The (N, 2) int64 rows (n1, n2) over n1 in ``rows``, n2 in ``cols`` with n1 <= n2.

    Row-major order: both inputs ascend, so the pairs ascend lexicographically.
    The array is allocated before the temporaries that fill it, so that
    freeing them leaves no hole below it.
    """
    first = np.searchsorted(cols, rows)  # each row's first column with n2 >= n1
    counts = len(cols) - first
    pairs = np.empty((int(counts.sum()), 2), dtype=np.int64)
    pairs[:, 0] = np.repeat(rows, counts)
    # The k-th entry of a row that starts at position s takes cols[first + k].
    index = np.arange(len(pairs))
    index -= np.repeat(np.cumsum(counts) - counts - first, counts)
    pairs[:, 1] = cols[index]
    return pairs


@dataclass(frozen=True, eq=False)
class LevelSet:
    """A truncated array of labeled levels, energy-ascending unless enumerated in label order.

    ``labels`` is an int64 array, shape (N,) of n for the ring and (N, 2) of
    (n1, n2) rows for the pair; ``energies`` is the float64 array of shape
    (N,).  Equal energies are ordered by label.  Both arrays are read-only.
    A set enumerated in label order (``enumerate_levels(..., order="label")``)
    keeps the label box's order instead: the closed forms' oracles sum over
    such sets, and only ``thermo.gibbs`` builds energy-ascending ones.  The
    cycle table builds no level sets: it evaluates both spectra on a label
    box (``label_box``) that holds every level either set would keep.

    ``tail_bound`` certifies the truncation for the inverse temperature the
    set was built for: it bounds sum over omitted levels of
    exp(-beta (E - E_ground)).  (The ground-state shift keeps the bound
    meaningful at large beta, where the unshifted weights underflow.)
    """

    labels: np.ndarray
    energies: np.ndarray
    tail_bound: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "labels", frozen_array(self.labels, np.int64))
        object.__setattr__(self, "energies", frozen_array(self.energies, np.float64))
        if len(self.labels) != len(self.energies):
            raise DomainError("labels and energies must have equal length")
        if self.tail_bound < 0.0:
            raise DomainError("tail_bound must be >= 0")


def pauli_energy(N: int, omega: float) -> float:
    """Ground-state energy gap between N trapped fermions and N trapped bosons.

    For a harmonic trap of frequency omega this is omega * N (N - 1) / 2
    (hbar = 1): the bosons all sit in the lowest level while the fermions
    fill the lowest N levels.
    """
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise DomainError(f"N must be a positive integer, got {N!r}")
    if not omega > 0.0:
        raise DomainError(f"omega must be positive, got {omega}")
    require_finite(omega=omega)
    try:
        gap = omega * N * (N - 1) / 2.0
    except OverflowError:  # N itself is past the double range
        gap = math.inf
    if not math.isfinite(gap):
        raise DomainError(f"omega N (N - 1) / 2 leaves the double range at omega={omega}")
    return gap


def require_finite_energies(energies: np.ndarray) -> np.ndarray:
    """``energies``, after raising DomainError unless each is a finite double."""
    if len(energies):
        largest = float(energies.max())  # nan wins the max, as it would the sort
        if not math.isfinite(largest):
            raise DomainError(f"level energies leave the double range (largest {largest})")
    return energies


def _sorted_level_set(labels, energies, tail_bound, beta) -> LevelSet:
    # ``labels`` arrive label-ascending, so a stable sort by energy alone
    # breaks ties by label.
    order = np.argsort(energies, kind="stable")
    return LevelSet(
        labels=labels[order],
        energies=energies[order],
        tail_bound=float(tail_bound),
        beta=float(beta),
    )


def _first_half_width(lam: float, lead: float, trail: float, tail_tol: float, cap: int) -> int:
    """The window half-width the Gaussian tail suggests, or ``cap + 1``.

    That is ceil(sqrt(lead + log(1/tail_tol)/lam + trail) + 2/sqrt(lam) + 2).
    Where lam underflows to 0 or the width passes ``cap`` (infinity
    included), ``cap + 1`` makes the window loop raise its cap's
    NoConvergence instead of int() an OverflowError.
    """
    if lam > 0.0:
        guess = math.sqrt(lead + math.log(1.0 / tail_tol) / lam + trail)
        width = guess + 2.0 * (1.0 / math.sqrt(lam)) + 2.0
        if width <= cap:
            return int(math.ceil(width))
    return cap + 1


def _ring_levels(spec: RingAnyonSpectrum, beta: float, tail_tol: float) -> tuple:
    """The ring's window search: (label bounds, energy cut, tail bound) of the levels it keeps.

    The window is n within K of peak = round(alpha), kept whole.  Each
    rounding step of E is monotone in |n - alpha|, so E(peak) is its least
    level and one of its ends its largest: the search evaluates only those.
    """
    lam = beta * spec.eps0
    gamma = spec.alpha
    peak = int(round(gamma))
    g_shift = (peak - gamma) ** 2  # dimensionless ground energy E_min/eps0
    e_min = spec.energy(peak)

    # Initial half-width from the analytic tail, then verify and grow.
    K = max(3, _first_half_width(lam, g_shift, 0.0, tail_tol, _RING_WINDOW_CAP))
    while True:
        if 2 * K + 1 > _RING_WINDOW_CAP:
            raise NoConvergence(
                f"ring window exceeded {_RING_WINDOW_CAP} levels at tail_tol={tail_tol:g}"
            )
        # Past the cap check, which a lam that underflowed to 0 never passes.
        inv_sqrt_lam = 1.0 / math.sqrt(lam)
        u_hi = (peak + K) - gamma
        u_lo = gamma - (peak - K)
        if min(u_hi, u_lo) < inv_sqrt_lam:
            K *= 2
            continue
        log_tail = beta * e_min + _logaddexp(
            _log_gauss_tail(lam, u_hi, 0.0, 0), _log_gauss_tail(lam, u_lo, 0.0, 0)
        )
        # The window is downward closed as it stands: its farthest level lies
        # K + |gamma - peak| <= K + 1/2 from gamma, the nearest omitted one
        # K + 1 - |gamma - peak| >= K + 1/2, and rounding keeps that order.
        tail = _exp_round_up(log_tail) * _CERT_SLACK
        if tail <= tail_tol:
            largest = max(spec.energy(peak - K), spec.energy(peak + K))
            if largest == math.inf:  # E has no nan: eps0 and alpha are finite
                require_finite_energies(np.array([largest]))
            return ((peak - K, peak + K),), math.inf, tail
        K *= 2


def _pair_energy(unit: float, offset: float, alpha: float, n1: int, n2: int) -> float:
    """E(n1, n2) from ``CSPairSpectrum._unit_offset``'s unit and offset: ``energy``'s expression.

    A window search binds unit, offset and alpha once (``_search_energy``)
    and evaluates a dozen levels with them.
    """
    return offset + 2.0 * unit * (n1 * n1 + n2 * n2 + alpha * (n1 - n2))


def _search_energy(spec: CSPairSpectrum):
    """``spec.energy`` without its order check, as a function of (n1, n2) with n1 <= n2."""
    return functools.partial(_pair_energy, *spec._unit_offset(), spec.alpha)


def _pair_ground(energy, alpha: float) -> float:
    """The least pair energy, from the at most 4 labels nearest (-alpha/2, alpha/2).

    ``energy`` is the spectrum's ``_search_energy``.  nan if one of them is
    nan: a window holds a nan energy exactly when its unit terms overflow,
    and then these labels hold one too.
    """
    m1, m2 = math.floor(-0.5 * alpha), math.floor(0.5 * alpha)
    lows = [energy(i, j) for i in (m1, m1 + 1) for j in (m2, m2 + 1) if i <= j]
    return math.nan if any(map(math.isnan, lows)) else min(lows)


def _cut_bounds(energy, alpha: float, unit: float, K: int, e_floor: float) -> tuple:
    """((n1_lo, n1_hi), (n2_lo, n2_hi)) of the window's levels at or below ``e_floor``.

    Row n1's lowest level lies at n2 = max(n1, nearest(alpha/2)), so the
    rows that keep a level form an interval; each end is walked to from the
    disk's analytic edge, deciding every step on ``spec.energy``'s doubles,
    which ``energy`` (``_search_energy``) gives.  E(n1, n2) = E(-n2, -n1) bit
    for bit, so the columns mirror the rows.
    """
    if e_floor == math.inf:  # the cut keeps the whole window, whose highest level is (K, K)
        require_finite_energies(np.array([energy(K, K)]))
        return (-K, K), (-K, K)
    half = 0.5 * alpha
    c = math.floor(half)  # a row n1 <= c has its lowest level at n2 = c or c + 1

    def row_kept(n1: int) -> bool:
        return min(energy(n1, max(c, n1)), energy(n1, max(c + 1, n1))) <= e_floor

    rho2 = e_floor / (2.0 * unit)  # the disk's squared radius in (n1, n2)
    y0 = min(half - c, c + 1 - half)
    reach = math.sqrt(max(rho2 - y0 * y0, 0.0))
    lo = min(max(math.ceil(-half - reach), -K), K)
    while lo > -K and row_kept(lo - 1):
        lo -= 1
    while lo < K and not row_kept(lo):
        lo += 1
    hi = math.floor(-half + reach)
    if hi > c:  # past c the lowest level is the diagonal's, 2 unit (2 n1^2 + alpha^2/2)
        hi = max(c, math.floor(math.sqrt(max(0.5 * rho2 - half * half, 0.0))))
    hi = min(max(hi, lo), K)
    while hi < K and row_kept(hi + 1):
        hi += 1
    while hi > lo and not row_kept(hi):
        hi -= 1
    return (lo, hi), (-hi, -lo)


def _cut_weight(beta, unit, alpha, K, e_min, e_floor, target) -> float:
    """An upper bound on the ground-shifted weight the cut drops from the window, or inf.

    The window's level count times the weight at the cut, O(1); where that
    is above ``target``, the smaller of it and the row tails' O(K) bound.
    """
    gap = e_floor - e_min
    if not gap > 0.0:  # nan, or the cut drops the ground level (weight 1)
        return math.inf
    bound = math.exp(math.log((2 * K + 1) * (K + 1)) - beta * gap)
    if bound <= target:
        return bound
    return min(bound, _row_tails(beta, unit, alpha, K, e_min, e_floor))


def _row_tails(beta, unit, alpha, K, e_min, e_floor) -> float:
    """An upper bound on the weight the cut drops, summed over the window's rows n1.

    With x = n1 + alpha/2 and y = n2 - alpha/2, the cut keeps |y| <= r in a
    row, r^2 = rho^2 - x^2.  The row drops at most the labels past r and
    those below -r, each side bounded by a one-sided lattice Gaussian tail
    from its first label in n1 <= n2 <= K, or by 0 where it has none.  Where
    the cut keeps none of the row, the two sides split it at y = 0.  rho^2
    is lowered to cover the energies' rounding, so no label the doubles drop
    lies within r.
    """
    lam2 = 2.0 * beta * unit  # the decay rate in x and y
    half = 0.5 * alpha
    rho2 = e_floor / (2.0 * unit) - 64.0 * _EPS * (alpha + 2.0 * K + 1.0) ** 2
    n1 = np.arange(-K, K + 1)
    x2 = (n1 + half) ** 2
    cut = rho2 > x2
    r = np.sqrt(np.where(cut, rho2 - x2, 0.0))
    first_up = np.maximum(np.where(cut, np.floor(half + r) + 1.0, math.ceil(half)), n1)
    last_down = np.where(cut, np.ceil(half - r), math.ceil(half)) - 1.0
    log_rows = beta * e_min - lam2 * x2
    rows = 0.0
    with np.errstate(over="ignore"):
        for y, empty in ((first_up - half, first_up > K), (half - last_down, last_down < n1)):
            # sum_{j >= 0} exp(-lam2 (y + j)^2) over y >= 0, as a geometric series
            # in exp(-lam2 (2y + 1)), or as its first term plus the integral
            # bound on erfc (Abramowitz and Stegun 7.1.13).
            ly = lam2 * y
            series = np.minimum(
                1.0 / -np.expm1(-(2.0 * ly + lam2)),
                1.0 + 1.0 / (ly + np.sqrt(ly * ly + lam2 * (4.0 / math.pi))),
            )
            rows = rows + np.where(empty, 0.0, np.exp(log_rows - ly * y) * series)
    return float(rows.sum())


def _cs_levels(spec: CSPairSpectrum, beta: float, tail_tol: float) -> tuple:
    """The pair's window search: (label bounds, energy cut, tail bound) of the levels it keeps.

    The window holds the pairs n1 <= n2 with |n1|, |n2| <= K, and keeps
    those at or below the cut e_floor.  As E = 2 unit [(n1 + alpha/2)^2 +
    (n2 - alpha/2)^2], they are the lattice points of a disk about
    (-alpha/2, alpha/2).  No step evaluates the window level by level: the
    ground energy, the label bounds and the dropped weight come from a few
    labels and O(K) row tails.
    """
    unit = math.pi**2 / spec.L**2
    lam = beta * unit  # decay rate in (m, n) coordinates
    alpha = spec.alpha
    # Minimum of (n - alpha)^2 over n >= 0.
    mu_n = (max(0, int(round(alpha))) - alpha) ** 2

    K = 3 + int(math.ceil(alpha / 2.0))
    if K <= _CS_WINDOW_CAP:  # else alpha alone is past the cap, and alpha**2 may overflow
        K = max(K, _first_half_width(lam, alpha**2, 1.0, tail_tol, _CS_WINDOW_CAP))
        energy = _search_energy(spec)
        e_min = _pair_ground(energy, alpha)  # the same in every window
    while True:
        if K > _CS_WINDOW_CAP:
            raise NoConvergence(
                f"pair window exceeded K={_CS_WINDOW_CAP} at tail_tol={tail_tol:g}"
            )
        # Past the cap check, which a lam that underflowed to 0 never passes.
        inv_sqrt_lam = 1.0 / math.sqrt(lam)
        # Bound on a full or half lattice Gaussian sum with peak weight <= 1.
        log_lattice = math.log(2.0 + math.sqrt(math.pi / lam))

        if (K - alpha) < inv_sqrt_lam or K < inv_sqrt_lam:
            K *= 2
            continue
        # Any omitted pair has |n1+n2| > K or n2-n1 > K in (m, n) coordinates;
        # bound the two overlapping half-tails (parity constraint ignored,
        # which only overcounts).
        log_tail_m = math.log(2.0) + _log_gauss_tail(lam, float(K), 0.0, 0) + log_lattice
        log_tail_n = _log_gauss_tail(lam, float(K - alpha), 0.0, 0) + log_lattice
        log_tail = beta * e_min + _logaddexp(log_tail_m, log_tail_n)
        outside = _exp_round_up(log_tail)

        e_floor = unit * min((K + 1.0) ** 2 + mu_n, (K + 1.0 - alpha) ** 2)
        if e_floor == math.inf and not math.isnan(e_min):
            dropped = 0.0  # no energy lies above the cut, and none is nan
        else:
            target = tail_tol / _CERT_SLACK - outside
            dropped = _cut_weight(beta, unit, alpha, K, e_min, e_floor, target)
        tail = (outside + dropped) * _CERT_SLACK
        if tail <= tail_tol:
            return _cut_bounds(energy, alpha, unit, K, e_floor), e_floor, tail
        K *= 2


def _search(spec, beta: float, tail_tol: float) -> tuple:
    """After the input checks, in order: (label bounds, energy cut, tail bound) of the search."""
    require_finite(beta=beta, tail_tol=tail_tol)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    require_tail_tol(tail_tol)
    if isinstance(spec, RingAnyonSpectrum):
        return _ring_levels(spec, beta, tail_tol)
    if isinstance(spec, CSPairSpectrum):
        return _cs_levels(spec, beta, tail_tol)
    raise DomainError(f"unsupported spectrum type: {type(spec).__name__}")


def enumerate_levels(spec, beta: float, tail_tol: float, order: str = "energy") -> LevelSet:
    """Enumerate every level that matters at inverse temperature beta.

    The quantum-number window grows until the analytic bound on the omitted
    ground-shifted Boltzmann weight drops below ``tail_tol``.  The set is
    downward closed in energy: the pair's window is cut at an energy below
    every omitted level, and the ring's window needs no cut.  Levels come
    back energy-ascending, degeneracies as separate labeled entries, equal
    energies in label order.  Only ``thermo.gibbs`` reads this order.  With
    ``order="label"`` the same levels come back label-ascending, unsorted:
    the closed forms' oracles sum over them in that order.  The cycle table
    takes only the window's label bounds (``window_bounds``).

    The energies are evaluated once, on the label box of the search's
    bounds, laid out as ``label_box`` does and cut where the search's cut is
    finite.  The box ascends by label, so one stable sort by energy gives
    the energy order.  Raises NoConvergence when the window would pass its
    cap, and DomainError when a kept energy is not a finite double or
    ``order`` is neither "energy" nor "label".
    """
    if order not in ("energy", "label"):
        raise DomainError(f"order must be 'energy' or 'label', got {order!r}")
    bounds, e_floor, tail = _search(spec, beta, tail_tol)
    labels, columns = label_box(bounds, bounds)
    energies = spec.energies(*columns)
    if e_floor < math.inf:
        keep = energies <= e_floor
        labels, energies = labels[keep], energies[keep]
    if order == "label":
        return LevelSet(labels, energies, float(tail), float(beta))
    return _sorted_level_set(labels, energies, tail, beta)


def window_bounds(spec, beta: float, tail_tol: float) -> tuple:
    """Per quantum number, the least and greatest label ``enumerate_levels`` keeps.

    ((n_lo, n_hi),) for the ring, ((n1_lo, n1_hi), (n2_lo, n2_hi)) for the
    pair, from the same window search, checks and errors, without building
    or sorting a level set.  Neither search evaluates its window in bulk.
    """
    return _search(spec, beta, tail_tol)[0]
