"""Equivalence predicates for signals and their lifts.

Two relations, in increasing coarseness:

  * equality up to a global phase offset; at phase 0 this is
    almost-everywhere equality, which for finite Fourier sums is
    coefficient equality;
  * constant magnitude ratio on the unit circle, decided structurally
    from reflection orbits of the roots, with a root-free check on the
    autocorrelation lags as an independent cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .blaschke import kappa_ratio
from .errors import (
    ConditionViolated,
    PeriodMismatch,
    ZeroPolynomial,
)
from .roots import _coeff_vector, find_roots_batch, joint_orbits
from .signals import TrigPoly, _half_lags

# relative lag residual under which numeric_magnitude_equiv accepts
_LAG_TOL = 1e-12


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of an equivalence test.

    kappa is populated only for the magnitude-ratio relation, phase only
    for the phase-offset relation, and witness describes where the test
    failed when related is False.
    """

    related: bool
    kappa: float = None
    phase: float = None
    witness: str = None


def _pad(p, m):
    if m == p.m:
        return p
    extra = m - p.m
    coeffs = np.concatenate(
        [np.zeros(extra, dtype=complex), p.coeffs, np.zeros(extra, dtype=complex)]
    )
    return TrigPoly(m=m, coeffs=coeffs, period=p.period)


def _common_order(p, q):
    if p.period != q.period:
        raise PeriodMismatch("periods %s and %s differ" % (p.period, q.period))
    m = max(p.m, q.m)
    return _pad(p, m), _pad(q, m)


def _wrap_angle(phi):
    phi = float(np.mod(phi + np.pi, 2 * np.pi) - np.pi)
    return -np.pi if phi == np.pi else phi


def phase_equiv(p, q):
    """Equality up to a global phase offset, q = exp(i phi) p.

    The candidate phi is read off the largest-magnitude coefficient pair
    and then verified across the whole vector. Two zero signals are
    related at phase 0; a zero and a nonzero one are not.
    """
    p, q = _common_order(p, q)
    scale = np.sqrt(max(p.energy, q.energy))
    if scale == 0:
        return EquivalenceVerdict(related=True, phase=0.0)
    j = int(np.argmax(np.abs(p.coeffs)))
    if p.coeffs[j] == 0:
        k = int(np.argmax(np.abs(q.coeffs)))
        return EquivalenceVerdict(
            related=False,
            witness="coefficient %d is %s in q but p is zero" % (k - q.m, q.coeffs[k]),
        )
    if abs(q.coeffs[j]) <= 1e-12 * scale:
        return EquivalenceVerdict(
            related=False,
            witness="coefficient %d is %s in p but ~0 in q" % (j - p.m, p.coeffs[j]),
        )
    phi = float(np.angle(q.coeffs[j] / p.coeffs[j]))
    rotated = p.coeffs * np.exp(1j * phi)
    dev = np.abs(q.coeffs - rotated)
    worst = int(np.argmax(dev))
    if dev[worst] > 1e-12 * scale:
        return EquivalenceVerdict(
            related=False,
            witness="coefficient %d deviates by %.3g after rotation"
            % (worst - p.m, dev[worst]),
        )
    return EquivalenceVerdict(related=True, phase=_wrap_angle(phi))


def struct_magnitude_equiv(f, g):
    """Decide |f| = kappa |g| on the unit circle from root structure.

    f and g are ascending coefficient arrays, such as the lifts
    TrigPoly.coeffs of two signals. The relation holds exactly when every
    reflection orbit carries the same total multiplicity for both
    polynomials and the on-circle zeros match with identical
    multiplicities; kappa then comes out of the leading coefficients and
    the inside representatives. The roots of f and g are solved in one
    find_roots_batch call and matched by joint_orbits.
    """
    f, g = _coeff_vector(f), _coeff_vector(g)
    if not (np.any(f) and np.any(g)):
        raise ZeroPolynomial("magnitude equivalence needs nonzero polynomials")
    rf, rg = find_roots_batch((f, g))
    try:
        kappa = kappa_ratio(*joint_orbits(rf, rg))
    except ConditionViolated as exc:
        return EquivalenceVerdict(related=False, witness=str(exc))
    return EquivalenceVerdict(related=True, kappa=kappa)


def numeric_magnitude_equiv(f, g):
    """Root-free lag oracle for the constant magnitude ratio.

    f and g are ascending coefficient arrays, as struct_magnitude_equiv
    takes. On the unit circle |f|^2 is the Fourier sum of the
    autocorrelation lags c_f of f's coefficients, so |f| = kappa |g|
    exactly when c_f = kappa^2 c_g. Fits lambda = Re<c_g, c_f> /
    ||c_g||^2 and accepts when lambda > 0 and ||c_f - lambda c_g|| <=
    1e-12 ||c_f||, with kappa = sqrt(lambda). The witness of a rejection
    gives that relative residual and lambda. Origin factors z^k leave the
    lags alone; each row is scaled by a power of two first, so any
    coefficient scale is exact.
    """
    f, g = _coeff_vector(f), _coeff_vector(g)
    if not (np.any(f) and np.any(g)):
        raise ZeroPolynomial("magnitude equivalence needs nonzero polynomials")
    rows = np.zeros((2, max(len(f), len(g)) | 1), dtype=complex)
    rows[0, : len(f)] = f
    rows[1, : len(g)] = g
    scale = np.exp2(-np.frexp(np.abs(rows).max(axis=1))[1])
    half = _half_lags(rows * scale[:, None])
    c_f, c_g = np.concatenate([np.conj(half[:, :0:-1]), half], axis=1)
    lam = np.vdot(c_g, c_f).real / np.vdot(c_g, c_g).real
    resid = np.linalg.norm(c_f - lam * c_g) / np.linalg.norm(c_f)
    ratio = scale[1] / scale[0]
    if not (lam > 0 and resid <= _LAG_TOL):
        return EquivalenceVerdict(
            related=False,
            witness="lag residual %.3g of ||c_f|| at lambda %.6g" % (resid, lam * ratio**2),
        )
    return EquivalenceVerdict(related=True, kappa=float(np.sqrt(lam) * ratio))
