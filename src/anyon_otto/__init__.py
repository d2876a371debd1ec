"""Quantum Otto engines with one- and two-anyon working media.

The package computes exact spectra for a flux-ring anyon and an interacting
anyon pair, builds Gibbs ensembles with certified truncation, composes the
four-stroke Otto cycle for three media (ring flux, pair volume, pair
coupling), and evaluates the theta-function closed forms for partition
functions and efficiencies, always side by side with brute-force summation
oracles.
"""

__version__ = "0.1.0"

from .errors import (
    AnyonOttoError,
    ConfigError,
    DegenerateCycle,
    DomainError,
    NoConvergence,
    OrderingError,
    ShapeError,
)
from .special_functions import (
    DEFAULT_ACCURACY,
    SumAccuracy,
    SumReport,
    gauss_sum_full,
    gauss_sum_half,
    partial_theta,
    theta3,
)
from .spectra import (
    CSPairSpectrum,
    LevelSet,
    RingAnyonSpectrum,
    enumerate_levels,
    pauli_energy,
)
from .thermo import (
    GibbsEnsemble,
    PathStep,
    entropy,
    gibbs,
    heat_work_split,
    partition_function,
)
from .otto import (
    CycleReport,
    OttoCycleSpec,
    SweepRow,
    cycle_strokes,
    efficiency_cs_volume,
    run_cycle,
    sweep_efficiency,
)
from .closed_form import (
    ClosedFormReport,
    cs_efficiency_closed,
    cs_efficiency_value,
    cs_partition_closed,
    cs_weighted_energy_sum,
    ring_efficiency_closed,
    ring_efficiency_value,
    ring_partition_closed,
    ring_weighted_energy_sum,
)

__all__ = [
    "__version__",
    "AnyonOttoError",
    "ConfigError",
    "DegenerateCycle",
    "DomainError",
    "NoConvergence",
    "OrderingError",
    "ShapeError",
    "DEFAULT_ACCURACY",
    "SumAccuracy",
    "SumReport",
    "gauss_sum_full",
    "gauss_sum_half",
    "partial_theta",
    "theta3",
    "CSPairSpectrum",
    "LevelSet",
    "RingAnyonSpectrum",
    "enumerate_levels",
    "pauli_energy",
    "GibbsEnsemble",
    "PathStep",
    "entropy",
    "gibbs",
    "heat_work_split",
    "partition_function",
    "CycleReport",
    "OttoCycleSpec",
    "SweepRow",
    "cycle_strokes",
    "efficiency_cs_volume",
    "run_cycle",
    "sweep_efficiency",
    "ClosedFormReport",
    "cs_efficiency_closed",
    "cs_efficiency_value",
    "cs_partition_closed",
    "cs_weighted_energy_sum",
    "ring_efficiency_closed",
    "ring_efficiency_value",
    "ring_partition_closed",
    "ring_weighted_energy_sum",
]
