"""Magnitude equivalence on the unit circle, square-law ambiguity classes,
and finite-order information-loss experiments for time-limited signals."""

__version__ = "0.1.0"

from .signals import AutocorrSeq, TrigPoly, autocorrelation
from .roots import (
    OrbitTable,
    RootMultiset,
    conj_reciprocal,
    find_roots,
    find_roots_batch,
    joint_orbits,
    pair_reciprocal,
)
from .blaschke import kappa_ratio
from .equivalence import (
    EquivalenceVerdict,
    numeric_magnitude_equiv,
    phase_equiv,
    struct_magnitude_equiv,
)
from .ambiguity import (
    BoundReport,
    ClassSet,
    certify_bound,
    enumerate_classes,
    factor_sld,
)
from .capacity import (
    Constellation,
    GapReport,
    bundled_constellation,
    entropy_bits,
    gap_experiment,
    single_class_constellation,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
