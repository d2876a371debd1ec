"""The partition and pair energy-sum oracles, and the cycle's one-pass Gibbs states.

``thermo.partition_function`` and ``closed_form.cs_weighted_energy_sum`` sum
over their window's levels enumerated in label order
(``enumerate_levels(..., order="label")``), which sorts nothing.  The three
oracles must agree with a 50-digit mpmath sum over the same levels, on
their exact energies, within 1e-13 relative.  Every term is positive, so the
sums' condition number is 1; what is left is the rounding of the energies
and the exponentials, a few dozen ulps where beta E reaches log(1/tail_tol).

The cycle table builds each isochore's state in one pass (``otto._RingBox``,
``otto._PairBox``).  The ring's arrays must equal what ``otto._labelwise``
gives on the box's labels, and its ground, top and log Z' what the
reductions over them give, bit for bit and signed zeros included, and its
log Z' must match mpmath on boxes whose range comes in two pieces; the
pair's split terms must equal ``split_energies`` on fresh copies of the
box's label axes, which two spectra on one box share and leave as they were.

The draws are derandomized: lam log-uniform in [0.05, 20] (the pair's lam is
beta pi^2 / L^2), alpha in [0, 3], level sets of up to about 1,000 levels,
and ring boxes in two pieces.
"""

import math

import mpmath
import numpy as np

from anyon_otto import closed_form as cf
from anyon_otto import otto, thermo
from anyon_otto.spectra import (
    CSPairSpectrum,
    RingAnyonSpectrum,
    enumerate_levels,
    label_spans,
    window_bounds,
)

DIGITS = 50
TOL = 1e-13
TAIL_TOL = 1e-14  # validate's
N_DRAWS = 40


def draws(seed, n=N_DRAWS):
    """n points (lam, alpha, alpha', scale, lam') from one numpy seed; the first two at lam's ends.

    lam and lam' are log-uniform in [0.05, 20], both alphas uniform in [0, 3],
    and scale (eps0 or L) log-uniform in [0.5, 2].
    """
    rng = np.random.default_rng(seed)
    for i in range(n):
        lam, lam2 = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 2))
        if i < 2:
            lam = (0.05, 20.0)[i]
        alpha, alpha2 = rng.uniform(0.0, 3.0, 2)
        scale = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        yield float(lam), float(alpha), float(alpha2), scale, float(lam2)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def ring_energies(spec, labels) -> list:
    """Exact ring energies eps0 (n - alpha)^2 on ``labels``, as mpf."""
    eps0, alpha = mpmath.mpf(spec.eps0), mpmath.mpf(spec.alpha)
    return [eps0 * (n - alpha) ** 2 for n in labels.tolist()]


def pair_energies(spec, labels) -> list:
    """Exact pair energies on the (n1, n2) rows of ``labels``, as mpf."""
    unit, alpha = mpmath.pi**2 / mpmath.mpf(spec.L) ** 2, mpmath.mpf(spec.alpha)
    return [
        unit * alpha**2 + 2 * unit * (n1 * n1 + n2 * n2 + alpha * (n1 - n2))
        for n1, n2 in labels.tolist()
    ]


def weighted_sum(beta, energies, weights=None) -> mpmath.mpf:
    """sum w exp(-beta E) at ``DIGITS`` digits, w = 1 where ``weights`` is None."""
    beta = mpmath.mpf(beta)
    if weights is None:
        weights = [1] * len(energies)
    return mpmath.fsum(w * mpmath.exp(-beta * e) for w, e in zip(weights, energies))


def relative_distance(value, reference) -> float:
    return float(abs(mpmath.mpf(value) - reference) / reference)


def window_labels(spec, beta):
    """The labels of the window's levels, in the label order the oracles sum them in."""
    labels = enumerate_levels(spec, beta, TAIL_TOL, "label").labels
    assert np.array_equal(np.unique(labels, axis=0), labels)
    return labels


def test_ring_partition_oracle_matches_mpmath():
    for lam, alpha, _, eps0, _ in draws(1):
        spec = RingAnyonSpectrum(eps0=eps0, alpha=alpha)
        beta = lam / eps0
        z = thermo.partition_function(spec, beta, TAIL_TOL)
        with mpmath.workdps(DIGITS):
            reference = weighted_sum(beta, ring_energies(spec, window_labels(spec, beta)))
            assert relative_distance(z, reference) <= TOL, (lam, alpha, eps0)


def test_pair_partition_oracle_matches_mpmath():
    sizes = []
    for lam, alpha, _, length, _ in draws(2):
        spec = CSPairSpectrum(L=length, alpha=alpha)
        beta = lam * length * length / math.pi**2
        z = thermo.partition_function(spec, beta, TAIL_TOL)
        labels = window_labels(spec, beta)
        sizes.append(len(labels))
        with mpmath.workdps(DIGITS):
            reference = weighted_sum(beta, pair_energies(spec, labels))
            assert relative_distance(z, reference) <= TOL, (lam, alpha, length)
    assert max(sizes) > 900


def test_pair_energy_sum_oracle_matches_mpmath():
    for lam, alpha_b, alpha_w, length, _ in draws(3):
        beta = lam * length * length / math.pi**2
        report = cf.cs_weighted_energy_sum(alpha_w, alpha_b, beta, length, TAIL_TOL)
        spec_b = CSPairSpectrum(L=length, alpha=alpha_b)
        labels = window_labels(spec_b, beta)
        with mpmath.workdps(DIGITS):
            weights = pair_energies(CSPairSpectrum(L=length, alpha=alpha_w), labels)
            reference = weighted_sum(beta, pair_energies(spec_b, labels), weights)
            assert relative_distance(report.oracle_value, reference) <= TOL, (
                lam, alpha_b, alpha_w, length
            )


def two_piece_ring_boxes(seed):
    """(box, [(spectrum, beta)] of its two windows): ring boxes with labels between the windows."""
    gaps = np.random.default_rng(seed).integers(3, 40, N_DRAWS).tolist()
    for (lam_b, alpha_b, _, eps0, lam_a), gap in zip(draws(seed), gaps):
        betas = (lam_b / eps0, lam_a / eps0)
        # each window's half-width, which does not depend on alpha's integer part
        widths = [window_bounds(RingAnyonSpectrum(eps0, 0.0), b, TAIL_TOL)[0][1] for b in betas]
        alpha_a = alpha_b + widths[0] + widths[1] + gap
        windows = [(RingAnyonSpectrum(eps0, a), b) for a, b in zip((alpha_b, alpha_a), betas)]
        bounds = [window_bounds(spec, beta, TAIL_TOL) for spec, beta in windows]
        yield otto._RingBox(label_spans(*bounds)), windows


def test_two_piece_ring_states_match_mpmath():
    # log Z' of the ground-shifted weights, against its own size where it is
    # below 1: it is formed as log1p of the excited weights where Z' < 2
    for box, windows in two_piece_ring_boxes(4):
        assert np.count_nonzero(np.diff(box.labels) > 1) == 1
        for spec, beta in windows:
            state = box.isochore(spec, beta)
            with mpmath.workdps(DIGITS):
                energies = ring_energies(spec, box.labels)
                reference = mpmath.log(weighted_sum(beta, [e - min(energies) for e in energies]))
                assert relative_distance(state.log_z, reference) <= TOL, (spec, beta)


def test_lean_ring_state_equals_the_labelwise_rows():
    for box, windows in two_piece_ring_boxes(5):
        for spec, beta in windows:
            energies, populations = np.empty((2, len(box)))
            otto._labelwise(spec, beta, (box.labels.astype(float),), energies, populations)
            state = box.isochore(spec, beta)
            assert same_bits(state.energies, energies)
            assert same_bits(state.populations, populations)
            assert same_bits(state.shift, energies.min())
            assert same_bits(state.top, energies.max())
            ground = int(populations.argmax())
            assert same_bits(state.log_z, thermo._log_shifted_partition(populations, ground))


def test_lean_pair_states_share_the_box_axes():
    signed_zeros = 0
    for lam_b, alpha_b, alpha_a, length, lam_a in draws(6):
        windows = [
            (CSPairSpectrum(L=length, alpha=alpha), lam * length * length / math.pi**2)
            for alpha, lam in ((alpha_b, lam_b), (alpha_a, lam_a))
        ]
        box = otto._PairBox(label_spans(*(window_bounds(s, b, TAIL_TOL) for s, b in windows)))
        fresh = (box.n1.astype(float), box.n2.astype(float))
        for spec, beta in windows:
            state = box.isochore(spec, beta)
            constant, terms = spec.split_energies(*(a.copy() for a in fresh))
            assert same_bits(state.energies, terms)
            assert same_bits(state.constant, constant)
            assert all(same_bits(a, b) for a, b in zip(box.axes, fresh))
            signed_zeros += int(np.count_nonzero((terms == 0.0) & np.signbit(terms)))
    assert signed_zeros > 0
