"""Four-stroke quantum Otto cycles for the anyonic working media.

The cycle runs hot isochore (A -> B, levels fixed at the hot control value,
populations relax from the transported cold state to hot equilibrium),
adiabat (B -> C, populations frozen while the control moves to its cold
value), cold isochore (C -> D, relaxation to cold equilibrium), adiabat
(D -> A, control back to hot).  Only B and D are equilibrium states.
Populations transport across adiabats by quantum-number label, so

    Q_in  = sum_n E_n(hot)  [P_n(B) - P_n(A)]
    Q_out = sum_n E_n(cold) [P_n(B) - P_n(A)]
    W_out = Q_in - Q_out,    eta = W_out / Q_in = 1 - Q_out / Q_in.

These are plain sums over labels, in any order.  The cycle table sums them
over one label box (``spectra.label_box``): the label-ascending set spanned
by the label ranges of the levels each isochore's certified enumeration
keeps, so it contains both downward-closed sets and each one's tail bound
still holds.  Each spectrum is weighted by its own Boltzmann factor and
normalized over the box.  As sum_n [P_n(B) - P_n(A)] = 0, each heat sums
ground-shifted energies, (E - E_ground) dP: at low temperature both ground
populations round to 1 and their difference to 0, and the ground's term is
then 0 as it should be, where the unshifted E_ground dP would lose the
excited weight that makes the heat.  Every sum is one
``thermo.sum_of_products``: the products' sum as ``math.fsum`` rounds it, in
an order that does not depend on the BLAS thread count.

Each isochore's state is kept by label axis (``_Isochore``).  The ring's one
axis is its levels n, a few thousand at most.  The pair's energy separates,
E(n1, n2) = constant + A(n1) + B(n2) (``CSPairSpectrum.split_energies``), so
its Gibbs weight is f(n1) g(n2) and its box, rows n1 by columns n2 cut to
n1 <= n2, has two marginals, each one running sum over the other axis.  The
heats, the noise rule's bound, the adiabats' work and the entropies are then
O(K) sums over K ~ 10-600 labels a side, where the box holds up to 60,000
levels.  This is still the direct sum of exp(-beta E) over the box, in
another order; no theta identity enters.  The per-level rows (labels,
E_hot, E_cold, P_B, P_A) of a pair box are built only when a report's
arrays are read, as one (4, N) block filled in place: 64 bytes a level
with the labels and their float columns.

Media and their control parameters:

* ``ring``:        flux parameter alpha_h (hot) vs alpha_l (cold) at fixed eps0.
* ``cs-volume``:   ring sizes (L1, L2) at fixed coupling alpha.  The hot
  isochore runs at the compressed size L2 < L1; every level scales as 1/L^2,
  which collapses the efficiency to 1 - L2^2/L1^2 independent of alpha and of
  both temperatures.
* ``cs-coupling``: couplings (alpha1, alpha2) at fixed L, heat intake at
  alpha2 (the engine that trades statistics for work; alpha1 = 0, alpha2 = 1
  is the Bose <-> Fermi cycle).

The efficiency field always carries the raw ratio 1 - Q_out/Q_in; the regime
flag says whether that number is an engine efficiency.  Parameter sweeps
cross regime boundaries, so non-engine points are flagged rather than
rejected.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AnyonOttoError, DegenerateCycle, DomainError
from .spectra import (
    CSPairSpectrum,
    RING_FLUX_LIMIT,
    RingAnyonSpectrum,
    _upper_pairs,
    frozen_array,
    label_spans,
    pair_length_in_range,
    require_finite,
    require_finite_energies,
    require_tail_tol,
    span_labels,
    window_bounds,
)
from .thermo import (
    DEFAULT_TAIL_TOL,
    _arguments_key,
    _gibbs_entropy,
    _ground_weights,
    _shared,
    _sharing,
    boltzmann,
    require_step_count,
    sum_of_products,
)

__all__ = [
    "MEDIA",
    "MEDIUM",
    "OttoCycleSpec",
    "CycleReport",
    "StrokeResult",
    "StrokeReport",
    "SweepRow",
    "run_cycle",
    "cycle_strokes",
    "efficiency_cs_volume",
    "sweep_efficiency",
]

REGIME_ENGINE = "engine"
REGIME_REFRIGERATOR = "refrigerator"
REGIME_DEGENERATE = "degenerate"

_ZERO_SCALE = 1e-300
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the least normal double


@dataclass(frozen=True)
class MediumParameter:
    """A named parameter of a medium, as the CLI, config files and sweeps call it.

    ``field`` is the OttoCycleSpec field it sets.  A required parameter has
    no default of its own; its ``default`` is the domain-safe stand-in a
    sweep template takes when that parameter is the swept one.
    """

    name: str
    field: str
    default: float
    required: bool
    doc: str


@dataclass(frozen=True)
class Medium:
    """One working medium: its parameters in order, domain checks and spectrum.

    ``checks`` are (predicate, message) pairs over an OttoCycleSpec, tried in
    order after the medium-independent checks; ``spectrum(spec, control)``
    builds the spectrum at one control value.
    """

    params: tuple
    checks: tuple
    spectrum: Callable

    @property
    def axis_fields(self) -> dict:
        """Sweepable name -> OttoCycleSpec field: both temperatures, then ``params``."""
        return {"beta_h": "beta_h", "beta_l": "beta_l", **{p.name: p.field for p in self.params}}

    def values(self, spec) -> tuple:
        """``spec``'s values of ``params``, in table order."""
        return tuple(getattr(spec, p.field) for p in self.params)


# The one place a medium is declared; spec checks, spectra, sweep axes, the
# per-medium constructors, CLI flags and config keys read it.  The CLI keeps
# each medium's closed-form residual beside its own code, because closed_form
# imports this module.
MEDIUM = {
    "ring": Medium(
        params=(
            MediumParameter("alpha_h", "control_hot", 0.0, True, "hot flux parameter"),
            MediumParameter("alpha_l", "control_cold", 0.0, True, "cold flux parameter"),
            MediumParameter("eps0", "eps0", 1.0, False, "energy scale"),
        ),
        checks=(
            (lambda s: s.eps0 > 0.0, "eps0 must be positive"),
            (
                lambda s: max(abs(s.control_hot), abs(s.control_cold)) < RING_FLUX_LIMIT,
                "flux parameters must satisfy |alpha| < 2^52",
            ),
        ),
        spectrum=lambda s, control: RingAnyonSpectrum(eps0=s.eps0, alpha=control),
    ),
    "cs-volume": Medium(
        params=(
            MediumParameter("l1", "control_cold", 1.0, True, "expanded ring size"),
            MediumParameter("l2", "control_hot", 1.0, True, "compressed ring size"),
            MediumParameter("alpha", "cs_alpha", 0.0, False, "fixed coupling"),
        ),
        checks=(
            (lambda s: min(s.control_hot, s.control_cold) > 0.0, "ring sizes must be positive"),
            (
                lambda s: pair_length_in_range(s.control_hot)
                and pair_length_in_range(s.control_cold),
                "ring sizes must keep pi^2/L^2 a finite positive double",
            ),
            (lambda s: s.cs_alpha >= 0.0, "alpha must be >= 0"),
        ),
        spectrum=lambda s, control: CSPairSpectrum(L=control, alpha=s.cs_alpha),
    ),
    "cs-coupling": Medium(
        params=(
            MediumParameter("alpha1", "control_cold", 0.0, True, "heat-rejection coupling"),
            MediumParameter("alpha2", "control_hot", 0.0, True, "heat-intake coupling"),
            MediumParameter("length", "cs_length", 1.0, False, "ring size"),
        ),
        checks=(
            (lambda s: s.cs_length > 0.0, "length must be positive"),
            (
                lambda s: pair_length_in_range(s.cs_length),
                "length must keep pi^2/L^2 a finite positive double",
            ),
            (lambda s: min(s.control_hot, s.control_cold) >= 0.0, "couplings must be >= 0"),
        ),
        spectrum=lambda s, control: CSPairSpectrum(L=s.cs_length, alpha=control),
    ),
}

MEDIA = tuple(MEDIUM)


@dataclass(frozen=True)
class OttoCycleSpec:
    """Full description of one cycle: medium, bath temperatures, controls.

    ``control_hot`` / ``control_cold`` are the control-parameter values of
    the hot and cold isochores (ring: alpha; cs-volume: L; cs-coupling:
    alpha).  Use the per-medium constructors, which take the medium's named
    parameters; its ``MEDIUM`` entry says which one lands on which side.
    """

    medium: str
    beta_h: float
    beta_l: float
    control_hot: float
    control_cold: float
    eps0: float = 1.0  # ring energy scale
    cs_alpha: float = 0.0  # cs-volume coupling
    cs_length: float = 1.0  # cs-coupling ring size
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.medium not in MEDIA:
            raise DomainError(f"medium must be one of {MEDIA}, got {self.medium!r}")
        require_finite(
            beta_h=self.beta_h,
            beta_l=self.beta_l,
            control_hot=self.control_hot,
            control_cold=self.control_cold,
            eps0=self.eps0,
            cs_alpha=self.cs_alpha,
            cs_length=self.cs_length,
            tail_tol=self.tail_tol,
        )
        if not self.beta_h > 0.0:
            raise DomainError(f"beta_h must be positive, got {self.beta_h}")
        if self.beta_h > self.beta_l:
            raise DomainError(
                f"need beta_h <= beta_l (T_h >= T_l), got {self.beta_h} > {self.beta_l}"
            )
        require_tail_tol(self.tail_tol)
        for ok, message in MEDIUM[self.medium].checks:
            if not ok(self):
                raise DomainError(message)

    @classmethod
    def _of(cls, medium: str, beta_h, beta_l, tail_tol, *values) -> "OttoCycleSpec":
        """The ``medium`` cycle whose named parameters take ``values``, in MEDIUM order."""
        fields = {p.field: value for p, value in zip(MEDIUM[medium].params, values)}
        return cls(medium=medium, beta_h=beta_h, beta_l=beta_l, tail_tol=tail_tol, **fields)

    @classmethod
    def ring_cycle(
        cls,
        alpha_h: float,
        alpha_l: float,
        beta_h: float,
        beta_l: float,
        eps0: float = 1.0,
        tail_tol: float = DEFAULT_TAIL_TOL,
    ) -> "OttoCycleSpec":
        """Ring medium: hot isochore at flux alpha_h, cold at alpha_l."""
        return cls._of("ring", beta_h, beta_l, tail_tol, alpha_h, alpha_l, eps0)

    @classmethod
    def cs_volume_cycle(
        cls,
        l1: float,
        l2: float,
        alpha: float,
        beta_h: float,
        beta_l: float,
        tail_tol: float = DEFAULT_TAIL_TOL,
    ) -> "OttoCycleSpec":
        """Variable-volume pair medium: compression L1 -> L2, heat intake at L2."""
        return cls._of("cs-volume", beta_h, beta_l, tail_tol, l1, l2, alpha)

    @classmethod
    def cs_coupling_cycle(
        cls,
        alpha1: float,
        alpha2: float,
        beta_h: float,
        beta_l: float,
        length: float = 1.0,
        tail_tol: float = DEFAULT_TAIL_TOL,
    ) -> "OttoCycleSpec":
        """Variable-coupling pair medium: heat intake at alpha2, rejection at alpha1."""
        return cls._of("cs-coupling", beta_h, beta_l, tail_tol, alpha1, alpha2, length)

    def spectrum_at(self, control: float):
        return MEDIUM[self.medium].spectrum(self, control)

    def spectrum_hot(self):
        return self.spectrum_at(self.control_hot)

    def spectrum_cold(self):
        return self.spectrum_at(self.control_cold)


@dataclass(frozen=True, eq=False)
class CycleReport:
    """Outcome of one cycle over the cycle table's label box.

    ``labels`` is the label box, label-ascending int64 of shape (N,) or
    (N, 2) as in ``LevelSet``: it holds every level that either isochore's
    enumeration keeps (see ``spectra.label_box``).  The energy and population
    fields are read-only float64 arrays in that order, each population
    normalized over the box.  A pair cycle builds these five arrays when one
    of them is first read; its heats and ledger come from the label axes
    alone.  ``efficiency`` is the raw ratio 1 - Q_out/Q_in; interpret it
    through ``regime``.  ``table`` is the cycle table (box, hot, cold) that
    the arrays and the per-stroke ledger (``strokes``) are read from.
    """

    q_in: float
    q_out: float
    w_out: float
    efficiency: float
    regime: str
    table: tuple = dataclasses.field(repr=False)

    @property
    def n_levels(self) -> int:
        """The box's level count, ``len(labels)``, read without building the labels."""
        return len(self.table[0])

    @functools.cached_property
    def _rows(self) -> tuple:
        # Kept on the report, not the box: sweep rows share a box across cycles.
        return self.table[0].rows(*self.table[1:])

    @property
    def labels(self) -> np.ndarray:
        return self._rows[0]

    @property
    def energies_hot(self) -> np.ndarray:
        return self._rows[1]

    @property
    def energies_cold(self) -> np.ndarray:
        return self._rows[2]

    @property
    def populations_b(self) -> np.ndarray:
        return self._rows[3]

    @property
    def populations_a(self) -> np.ndarray:
        return self._rows[4]

    def strokes(self) -> "StrokeReport":
        """The four strokes' heat and work, and the corner entropies, from this report.

        Both count energy into the system, as in ``thermo.heat_work_split``.  A
        stroke holds the levels (isochore) or the populations (adiabat) fixed, so
        it telescopes to its endpoints: heat Q_in or -Q_out, or work P . dE at
        P_B or P_A, and an exact zero for the other half.  Each is a sum over
        the label axes (see ``_Isochore``).
        """
        _, hot, cold = self.table
        strokes = (
            StrokeResult("A->B", heat=self.q_in, work=0.0),
            StrokeResult("B->C", heat=0.0, work=hot.work_to(cold)),
            StrokeResult("C->D", heat=-self.q_out, work=0.0),
            StrokeResult("D->A", heat=0.0, work=cold.work_to(hot)),
        )
        s_b, s_a = hot.entropy(), cold.entropy()
        return StrokeReport(strokes, entropy_a=s_a, entropy_b=s_b, entropy_c=s_b, entropy_d=s_a)


@dataclass(frozen=True, eq=False)
class _Isochore:
    """One isochore's Gibbs state on the label box, as sums over the box's label axes.

    Each level's energy is ``constant`` plus one entry of ``energies`` per
    quantum number: the ring has one axis, its levels n, and a constant 0;
    the pair has two, the box's rows n1 followed by its columns n2, each
    shifted to its least entry.  ``populations`` are the state's marginal
    populations on the same entries, so every sum of a level function that
    separates by label is one O(K) sum over them.  ``shift`` is the entries'
    ground (the ring's least level; 0 for the pair), subtracted inside each
    heat sum, ``log_z`` the log of the partition sum of the ground-shifted
    weights, and ``top`` an upper bound on the box's energies.
    """

    spectrum: object
    beta: float
    energies: np.ndarray
    populations: np.ndarray
    shift: float
    constant: float
    log_z: float
    top: float

    def heat(self, dp: np.ndarray) -> float:
        """sum (E - ground) dP: the constant and the ground cancel, as sum dP = 0."""
        return sum_of_products(self.energies, dp, self.shift)

    def work_to(self, other: "_Isochore") -> float:
        """sum P (E_other - E) at this state's populations: an adiabat's work."""
        gap = other.constant - self.constant
        return gap + sum_of_products(self.populations, other.energies - self.energies)

    def entropy(self) -> float:
        """-sum P ln P = beta <E - ground> + ln Z' over the ground-shifted weights."""
        return _gibbs_entropy(self.beta, self.energies, self.populations, self.shift, self.log_z)


def _labelwise(spec, beta: float, columns: tuple, energies, populations) -> None:
    """One spectrum's energies and Gibbs populations at ``beta`` on the box's label columns.

    They are written into ``energies`` and ``populations``; for the pair, the
    populations array serves as the energies' scratch until it is filled.
    """
    scratch = {"scratch": populations} if len(columns) == 2 else {}
    require_finite_energies(spec.energies(*columns, out=energies, **scratch))
    boltzmann(energies, beta, out=populations)


class _RingBox:
    """The ring's label box, one range of n, evaluated level by level.

    The levels are the ring's one label axis, so its rows are its isochores'
    arrays, and the noise rule's spread is exact.  ``spans`` are the box's
    ``spectra.label_spans``.
    """

    def __init__(self, spans: tuple):
        self.spans = spans
        (self.labels,) = map(span_labels, spans)

    def __len__(self) -> int:
        return len(self.labels)

    def isochore(self, spectrum, beta: float) -> _Isochore:
        """The state at ``beta``: the box's energies, then ``thermo.boltzmann``'s one pass.

        Each rounding step of E = eps0 (n - alpha)^2 is monotone in
        |n - alpha|, so the box's largest energy lies at its least or its
        greatest label, even where its range comes in two pieces.
        """
        energies, populations = np.empty((2, len(self.labels)))
        spectrum.energies(self.labels, out=energies)
        top = max(float(energies[0]), float(energies[-1]))
        if not math.isfinite(top):
            require_finite_energies(np.array([top]))
        _, e0, log_z = boltzmann(energies, beta, out=populations)
        return _Isochore(spectrum, beta, energies, populations, float(e0), 0.0, log_z, top)

    def rows(self, hot: _Isochore, cold: _Isochore) -> tuple:
        arrays = (self.labels, hot.energies, cold.energies, hot.populations, cold.populations)
        return tuple(map(frozen_array, arrays))

    def is_noise(self, hot: _Isochore, cold: _Isochore, r: float, limit: float) -> bool:
        """The noise rule, taken only where the spread's O(1) bound reaches ``limit``."""
        bound = _spread_bound(hot, cold, r, 2.0)
        return _EPS * bound >= limit and _EPS * _spread(hot, cold, r) >= limit


class _PairBox:
    """The pair's label box: rows n1 by columns n2, cut to n1 <= n2, by its two label axes.

    Either range may come in two pieces (``spans``, the box's
    ``spectra.label_spans``), so each row's first column n2 >= n1 and each
    column's last row n1 <= n2 are found by position.  ``axes`` holds the
    rows' and the columns' labels as float views of one array, formed once
    per box for both spectra's ``CSPairSpectrum.split_energies``.  The
    per-level rows are built only on request (``rows``), and a box may serve
    several cycles, so it keeps none.
    """

    def __init__(self, spans: tuple):
        self.spans = spans
        self.n1, self.n2 = map(span_labels, spans)
        axes = np.concatenate((self.n1, self.n2), dtype=float)
        self.axes = (axes[:len(self.n1)], axes[len(self.n1):])
        self.first = self.n2.searchsorted(self.n1)  # each row's first column n2 >= n1
        self.last = self.n1.searchsorted(self.n2, "right")  # each column's rows n1 <= n2
        self.size = len(self.n1) * len(self.n2) - int(self.first.sum())

    def __len__(self) -> int:
        return self.size

    def isochore(self, spectrum, beta: float) -> _Isochore:
        """The state's marginals on the rows and the columns.

        p(n1) = f(n1) sum_{n2 >= n1} g / Z' and p(n2) = g(n2) sum_{n1 <= n2} f / Z',
        where f = exp(-beta A) and g = exp(-beta B) weigh the split's row and
        column terms (``CSPairSpectrum.split_energies``), each 0 at its least
        label, so ``thermo._ground_weights`` forms them against a ground of 0:
        a level's weight is f(n1) g(n2), and the ground's is 1.  The head and
        tail sums are running sums (``np.add.accumulate``); each tail runs up
        from the smallest weights.
        """
        constant, energies = spectrum.split_energies(*self.axes)
        k = len(self.n1)
        # A and B are convex in the label, so each axis peaks at one of its ends
        top = max(energies[0], energies[k - 1]) + max(energies[k], energies[-1])
        top = constant + float(top)
        if not math.isfinite(top):
            require_finite_energies(np.array([top]))
        populations, _ = _ground_weights(energies, beta, e0=0.0)
        # heads[i] = sum_{n1 < n1[i]} f, then tails[j] = sum_{n2 >= n2[j]} g
        sums = np.zeros(len(energies) + 2)
        heads, tails = sums[:k + 1], sums[k + 1:]
        np.add.accumulate(populations[:k], out=heads[1:])
        np.add.accumulate(populations[:k - 1:-1], out=tails[-2::-1])
        populations[:k] *= tails[self.first]
        z = float(populations[:k].sum())
        log_z = math.log(z) if z > 2.0 else math.log1p(self._excited(energies, populations, tails))
        populations[k:] *= heads[self.last]
        populations /= z
        return _Isochore(spectrum, beta, energies, populations, 0.0, constant, log_z, top)

    def _excited(self, energies: np.ndarray, weights: np.ndarray, tails: np.ndarray) -> float:
        """Z' - 1, never formed from Z': the sum of the excited levels' weights.

        ``weights`` holds each row's weight f(n1) sum_{n2 >= n1} g and then each
        column's g(n2), and ``tails`` the column tail sums.  The ground is the
        row and the column where A and B are 0 (r <= c, see
        ``CSPairSpectrum.split_energies``), each of weight 1, so Z' - 1 is every
        other row's weight plus the ground row's other columns: the tail past
        the ground column and the few columns from the row's first up to it.
        Where Z' < 2 the box is small, so the sums run over lists.
        """
        k = len(self.n1)
        row, col = int(energies[:k].argmin()), int(energies[k:].argmin())
        rows = weights[:k].tolist()
        rows[row] = 0.0
        before_ground = weights[k + self.first[row]:k + col].tolist()
        return sum(rows) + float(tails[col + 1]) + sum(before_ground)

    def rows(self, hot: _Isochore, cold: _Isochore) -> tuple:
        """(labels, E_hot, E_cold, P_B, P_A) level by level, as ``_labelwise`` evaluates them.

        The labels are ``spectra.label_box``'s.  The (4, N) block of the level
        rows is allocated before the label columns' float copies, which it
        outlives, so that freeing them leaves no hole below it.  They peak at
        64 bytes a level.
        """
        labels = _upper_pairs(self.n1, self.n2)
        block = np.empty((4, len(labels)))
        columns = [c.astype(float) for c in labels.T]
        _labelwise(hot.spectrum, hot.beta, columns, block[0], block[2])
        _labelwise(cold.spectrum, cold.beta, columns, block[1], block[3])
        return tuple(map(frozen_array, (labels, *block)))

    def is_noise(self, hot: _Isochore, cold: _Isochore, r: float, limit: float) -> bool:
        """The noise rule on the rows, taken only where a bound by label axes reaches ``limit``.

        The rule's sum |(E_cold - ground) - r (E_hot - ground)| (P_B + P_A) does
        not separate by label.  With the split E - constant = A(n1) + B(n2),
        |u(n1) + v(n2)| <= |u(n1)| + |v(n2)| bounds it by the axes' own spread.
        The bound is then raised past what rounding may add to either side: by
        2^-20 relative for the populations, and by 2^-29 of the terms' scale for
        the energies (``CSPairSpectrum.term_bound``).  Below ``limit`` so is the
        rule's sum; else the rows decide.  The axes' spread is itself taken
        only where its O(1) bound, ``_spread_bound``, with the same slack,
        reaches ``limit``.
        """
        terms = cold.spectrum.term_bound(cold.top) + abs(r) * hot.spectrum.term_bound(hot.top)

        def reaches(spread: float) -> bool:
            return _EPS * (spread * (1.0 + 2.0**-20) + 2.0**-29 * terms) >= limit

        return (
            reaches(_spread_bound(hot, cold, r, 4.0))
            and reaches(_spread(hot, cold, r))
            and _rows_are_noise(self.rows(hot, cold), r, limit)
        )


def _spread(hot: _Isochore, cold: _Isochore, r: float) -> float:
    """sum |(E_cold - shift) - r (E_hot - shift)| (P_B + P_A) over the isochores' label axes."""
    return _shifted_spread(
        hot.energies, cold.energies, hot.populations, cold.populations, hot.shift, cold.shift, r
    )


def _spread_bound(hot: _Isochore, cold: _Isochore, r: float, total: float) -> float:
    """An O(1) upper bound on ``_spread``, from numbers each isochore holds.

    Every entry's |(E_cold - shift) - r (E_hot - shift)| is at most
    reach_cold + |r| reach_hot, with reach = top - shift - constant, and the
    entries' P_B + P_A add to ``total``: 2 on the ring's one axis, 4 on the
    pair's two marginals.  The bound is raised past the rounding of the
    spread's own sum: by 2^-20 relative, for the populations' sums and the
    sum over up to 2^30 entries, and by 2^-40 of the energies' magnitudes,
    for the subtractions in each entry and in the reaches.
    """
    reach = scale = 0.0
    for state, weight in ((cold, 1.0), (hot, abs(r))):
        reach += weight * (state.top - state.shift - state.constant)
        scale += weight * (abs(state.top) + abs(state.shift) + abs(state.constant))
    return total * (reach * (1.0 + 2.0**-20) + 2.0**-40 * scale)


def _shifted_spread(e_hot, e_cold, p_b, p_a, shift_hot, shift_cold, r) -> float:
    """sum |(e_cold - shift_cold) - r (e_hot - shift_hot)| (p_b + p_a), in one temporary."""
    spread = np.subtract(e_hot, shift_hot)
    spread *= r
    np.subtract(e_cold, spread, out=spread)
    spread -= shift_cold
    np.abs(spread, out=spread)
    spread *= p_b + p_a
    return float(np.sum(spread))


def _rows_are_noise(rows: tuple, r: float, limit: float) -> bool:
    """The noise rule level by level, on the rows shifted to their least energies."""
    _, e_hot, e_cold, p_b, p_a = rows
    spread = _shifted_spread(e_hot, e_cold, p_b, p_a, e_hot.min(), e_cold.min(), r)
    return _EPS * spread >= limit


def _cycle_table(spec: OttoCycleSpec, previous: Optional[tuple] = None):
    """(box, hot, cold): the label box of the two isochores and each one's Gibbs state on it.

    ``len(box)`` is the box's level count; ``box.rows(hot, cold)`` gives
    (labels, E_hot, E_cold, P_B, P_A) level by level.  Given the table of
    the sweep's previous row, its box serves again when the two windows'
    label spans equal its own, and so does each of its states whose
    spectrum and beta equal this side's bit for bit (``_is_state``): a state
    is a function of the box's labels, the spectrum and beta alone.
    """
    hot_spec = spec.spectrum_hot()
    cold_spec = spec.spectrum_cold()
    spans = label_spans(
        _shared(window_bounds, hot_spec, spec.beta_h, spec.tail_tol),
        _shared(window_bounds, cold_spec, spec.beta_l, spec.tail_tol),
    )
    if previous is None or previous[0].spans != spans:
        box = (_PairBox if len(spans) == 2 else _RingBox)(spans)
        return box, box.isochore(hot_spec, spec.beta_h), box.isochore(cold_spec, spec.beta_l)
    box, hot, cold = previous
    if not _is_state(hot, hot_spec, spec.beta_h):
        hot = box.isochore(hot_spec, spec.beta_h)
    if not _is_state(cold, cold_spec, spec.beta_l):
        cold = box.isochore(cold_spec, spec.beta_l)
    return box, hot, cold


def _is_state(state: _Isochore, spectrum, beta: float) -> bool:
    """Whether ``state`` is that of ``spectrum`` at ``beta``, as ``thermo._shared`` matches them."""
    return _arguments_key(spectrum, beta) == _arguments_key(state.spectrum, state.beta)


def run_cycle(spec: OttoCycleSpec) -> CycleReport:
    """Run one Otto cycle and report heats, work, efficiency and regime.

    Raises DegenerateCycle when Q_in vanishes identically (for example
    beta_h = beta_l with identical hot and cold controls), where the
    efficiency ratio is 0/0, or so small that the efficiency is only the
    populations' rounding noise.  The two window searches are kept for the
    open ``thermo._sharing`` scope, if any.
    """
    return _cycle_report(*_cycle_table(spec))


def _cycle_report(box, hot: _Isochore, cold: _Isochore) -> CycleReport:
    dp = hot.populations - cold.populations
    q_in = hot.heat(dp)
    q_out = cold.heat(dp)
    del dp
    w_out = q_in - q_out

    scale = max(1.0, hot.top)
    if abs(q_in) < _ZERO_SCALE * scale or _ratio_is_noise(box, hot, cold, q_in, q_out):
        raise DegenerateCycle(
            "denominator sum E_hot (P_B - P_A) vanishes; hot and cold states coincide"
        )

    if w_out == 0.0 or abs(w_out) < _ZERO_SCALE * scale:
        regime = REGIME_DEGENERATE
    elif q_in > 0.0 and w_out > 0.0:
        regime = REGIME_ENGINE
    else:
        regime = REGIME_REFRIGERATOR

    return CycleReport(
        q_in=q_in,
        q_out=q_out,
        w_out=w_out,
        efficiency=1.0 - q_out / q_in,
        regime=regime,
        table=(box, hot, cold),
    )


def _ratio_is_noise(box, hot: _Isochore, cold: _Isochore, q_in: float, q_out: float) -> bool:
    """Whether rounding the populations alone may move r = Q_out/Q_in by max(1, |1 - r|).

    A relative error eps in each population moves r by up to
    eps sum |E_cold - r E_hot| (P_B + P_A) / |Q_in|, with each spectrum's
    energies shifted to its ground as the heats are.  Where Q_in is that
    small, the efficiency 1 - r has no digit left.  Heats that are only
    noise still give an exact r where the two spectra are proportional
    (cs-volume), since the noise then cancels in the ratio.
    """
    r = q_out / q_in
    return box.is_noise(hot, cold, r, abs(q_in) * max(1.0, abs(1.0 - r)))


def efficiency_cs_volume(l1: float, l2: float) -> float:
    """Analytic efficiency 1 - L2^2/L1^2 of the variable-volume pair engine.

    Every level scales as 1/L^2, so the population-weighted sums cancel and
    the compression ratio alone fixes the efficiency.
    """
    if not (l1 > 0.0 and l2 > 0.0):
        raise DomainError("ring sizes must be positive")
    require_finite(l1=l1, l2=l2)
    l1_sq, l2_sq = l1 * l1, l2 * l2
    eta = 1.0 - l2_sq / l1_sq if min(l1_sq, l2_sq) >= _TINY else math.nan
    if not math.isfinite(eta):
        # A square left the double range, or kept few bits below the least
        # normal double; the ratio, squared after, may not.
        r = l2 / l1
        eta = 1.0 - r * r
    if not math.isfinite(eta):
        raise DomainError(f"L2^2/L1^2 leaves the double range at l1={l1}, l2={l2}")
    return eta


@dataclass(frozen=True)
class StrokeResult:
    name: str
    heat: float
    work: float


@dataclass(frozen=True)
class StrokeReport:
    """Four-stroke heat/work breakdown with corner entropies."""

    strokes: tuple
    entropy_a: float
    entropy_b: float
    entropy_c: float
    entropy_d: float

    def stroke(self, name: str) -> StrokeResult:
        return {s.name: s for s in self.strokes}[name]


def cycle_strokes(spec: OttoCycleSpec, steps_per_stroke: int = 1000) -> StrokeReport:
    """``run_cycle(spec).strokes()``, DegenerateCycle too; ``steps_per_stroke`` changes nothing."""
    require_step_count(steps_per_stroke, "steps_per_stroke")
    return run_cycle(spec).strokes()


@dataclass(frozen=True)
class SweepRow:
    """One sweep grid point: either a report or an error message.

    ``spec`` is the cycle the row ran; None where the swept value gave no
    valid spec.
    """

    value: float
    report: Optional[CycleReport]
    error: Optional[str] = None
    spec: Optional[OttoCycleSpec] = None


def sweep_axes(medium: str) -> tuple:
    """Sweepable parameter names for a medium."""
    return tuple(MEDIUM[medium].axis_fields)


@_sharing()
def sweep_efficiency(
    template: OttoCycleSpec, sweep_axis: str, values: Sequence[float]
) -> list:
    """Run one cycle per grid value of the named parameter.

    Rows keep the input order.  A failing point (any AnyonOttoError, such as
    a degenerate cycle, a domain violation or an enumeration that does not
    converge) is recorded in its row and does not abort the sweep.  Each row
    equals an independent ``run_cycle`` bit for bit.  The window search of
    the isochore the axis leaves alone runs once per call, which opens one
    ``_sharing`` scope, and its state once per label box (see ``_sweep_rows``).
    """
    try:
        field = MEDIUM[template.medium].axis_fields[sweep_axis]
    except KeyError:
        raise DomainError(
            f"cannot sweep {sweep_axis!r} for medium {template.medium!r}; "
            f"choose one of {sweep_axes(template.medium)}"
        ) from None
    return list(_sweep_rows(template, field, values))


def _sweep_rows(template: OttoCycleSpec, field: str, values: Sequence[float]):
    """Yield the SweepRow of each value in turn: the row loop of every sweep.

    The rows share the caller's ``_sharing`` scope, so a row whose
    isochore has the (spectrum, beta, tail_tol) of an earlier row takes that
    window's label bounds instead of searching it again.  Each row hands the
    last cycle table built to ``_cycle_table``, which keeps its label box
    while the windows' spans stay the same, and within it the state of the
    isochore the axis leaves alone: only the swept isochore's state is built
    per row.
    """
    table = None
    for value in values:
        cycle_spec = None
        try:
            cycle_spec = dataclasses.replace(template, **{field: float(value)})
            table = _cycle_table(cycle_spec, table)
            row = SweepRow(float(value), _cycle_report(*table), spec=cycle_spec)
        except (AnyonOttoError, ValueError) as exc:
            row = SweepRow(
                value=float(value),
                report=None,
                error=f"{type(exc).__name__}: {exc}",
                spec=cycle_spec,
            )
        yield row
