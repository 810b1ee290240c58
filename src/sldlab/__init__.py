"""Magnitude equivalence on the unit circle, square-law ambiguity classes,
and finite-order information-loss experiments for time-limited signals."""

__version__ = "0.1.0"

from .signals import (
    AutocorrSeq,
    CoeffPoly,
    TrigPoly,
    autocorr_from_samples,
    autocorr_lift,
    autocorrelation,
    eval_intensity,
    eval_time,
    intensity_samples,
    lift,
    sample_grid,
    unlift,
)
from .roots import (
    ClassifiedRoot,
    JointOrbit,
    ReciprocalOrbit,
    RootMultiset,
    conj_reciprocal,
    find_roots,
    find_roots_batch,
    joint_orbits,
    pair_reciprocal,
    reconstruct,
)
from .blaschke import BlaschkeProduct, factor_eval, from_inside_zeros, kappa_ratio, product_eval
from .equivalence import (
    EquivalenceVerdict,
    ae_equal,
    degree_match,
    numeric_magnitude_equiv,
    phase_equiv,
    struct_magnitude_equiv,
)
from .ambiguity import (
    BoundReport,
    ClassSet,
    FlipSpec,
    canonicalize,
    certify_bound,
    enumerate_classes,
    factor_sld,
    flip,
)
from .capacity import (
    Constellation,
    DiscreteNoise,
    GapReport,
    PhaseGrid,
    auxiliary_rotate,
    bundled_constellation,
    entropy_bits,
    gap_experiment,
    measurement_transform,
    mi_dmc,
    quantize_phase,
    single_class_constellation,
    theta_m,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
