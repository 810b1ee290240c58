"""Equivalence predicates for signals and their lifts.

Three relations, in increasing coarseness:

  * almost-everywhere equality, which for finite Fourier sums is plain
    coefficient equality;
  * equality up to a global phase offset;
  * constant magnitude ratio on the unit circle, decided structurally
    from reflection orbits of the roots, with a root-free check on the
    autocorrelation lags as an independent cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .blaschke import kappa_ratio
from .errors import (
    ConditionViolated,
    NotEquivalent,
    PeriodMismatch,
    ZeroPolynomial,
)
from .roots import find_roots_batch, joint_orbits
from .signals import TrigPoly, autocorrelation_rows


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


def ae_equal(p, q):
    """Almost-everywhere equality of two signals.

    Trigonometric polynomials agree a.e. exactly when their coefficient
    vectors agree, so this is a scale-aware coefficient comparison. The
    shorter vector is zero-padded, the periods must match.
    """
    p, q = _common_order(p, q)
    scale = np.sqrt(max(p.energy, q.energy))
    if scale == 0:
        return True
    return bool(np.abs(p.coeffs - q.coeffs).max() <= 1e-12 * scale)


def phase_equiv(p, q):
    """Equality up to a global phase offset, q = exp(i phi) p.

    The candidate phi is read off the largest-magnitude coefficient pair
    and then verified across the whole vector.
    """
    p, q = _common_order(p, q)
    scale = np.sqrt(max(p.energy, q.energy))
    if scale == 0:
        return EquivalenceVerdict(related=True, phase=0.0)
    j = int(np.argmax(np.abs(p.coeffs)))
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


def struct_magnitude_equiv(
    f, g, root_tol=1e-8, circle_band=1e-9, match_tol=1e-6, seed=12345
):
    """Decide |f| = kappa |g| on the unit circle from root structure.

    The relation holds exactly when every reflection orbit carries the
    same total multiplicity for both polynomials and the on-circle zeros
    match with identical multiplicities; kappa then comes out of the
    leading coefficients and the inside representatives.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("magnitude equivalence needs nonzero polynomials")
    rf, rg = find_roots_batch((f, g), tol=root_tol, circle_band=circle_band, seed=seed)
    orbits, circle_pairs = joint_orbits(rf, rg, match_tol=match_tol)
    try:
        kappa = kappa_ratio(rf, rg, orbits, circle_pairs)
    except ConditionViolated as exc:
        return EquivalenceVerdict(related=False, witness=str(exc))
    return EquivalenceVerdict(related=True, kappa=kappa)


def numeric_magnitude_equiv(f, g, tol=1e-12):
    """Root-free lag oracle for the constant magnitude ratio.

    On the unit circle |f|^2 is the Fourier sum of the autocorrelation lags
    c_f of f's coefficients, so |f| = kappa |g| exactly when c_f =
    kappa^2 c_g. Fits lambda = Re<c_g, c_f> / ||c_g||^2 and accepts when
    lambda > 0 and ||c_f - lambda c_g|| <= tol ||c_f||, with kappa =
    sqrt(lambda). The witness of a rejection gives that relative residual
    and lambda. Origin factors z^k leave the lags alone; each row is scaled
    by a power of two first, so any coefficient scale is exact.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("magnitude equivalence needs nonzero polynomials")
    rows = np.zeros((2, max(len(f.coeffs), len(g.coeffs)) | 1), dtype=complex)
    rows[0, : len(f.coeffs)] = f.coeffs
    rows[1, : len(g.coeffs)] = g.coeffs
    scale = np.exp2(-np.frexp(np.abs(rows).max(axis=1))[1])
    c_f, c_g = autocorrelation_rows(rows * scale[:, None])
    lam = np.vdot(c_g, c_f).real / np.vdot(c_g, c_g).real
    resid = np.linalg.norm(c_f - lam * c_g) / np.linalg.norm(c_f)
    ratio = scale[1] / scale[0]
    if not (lam > 0 and resid <= tol):
        return EquivalenceVerdict(
            related=False,
            witness="lag residual %.3g of ||c_f|| at lambda %.6g" % (resid, lam * ratio**2),
        )
    return EquivalenceVerdict(related=True, kappa=float(np.sqrt(lam) * ratio))


def degree_match(f, g, root_tol=1e-8, circle_band=1e-9):
    """Whether two magnitude-equivalent polynomials have equal degree.

    Raises NotEquivalent when the pair is not magnitude-equivalent in the
    first place. For related pairs this is the same question as whether
    their origin multiplicities agree, which the tests assert.
    """
    verdict = struct_magnitude_equiv(f, g, root_tol=root_tol, circle_band=circle_band)
    if not verdict.related:
        raise NotEquivalent(verdict.witness or "pair is not magnitude-equivalent")
    return f.effective_degree() == g.effective_degree()
