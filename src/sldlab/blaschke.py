"""Finite Blaschke products and the constant magnitude ratio they induce.

A Blaschke factor

    B_a(z) = (a - z) / (1 - conj(a) z),   |a| < 1,

is unimodular on the unit circle and contracts the open disk. Finite
products of such factors (times a unimodular constant and a power of -z)
are exactly the ratios that appear when two polynomials share the same
magnitude on the circle up to a constant; that constant is computed here
from the leading coefficients and the reflection orbits.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConditionViolated, DomainError, PoleEvaluation

_POLE_TOL = 1e-12
_CIRCLE_GUARD = 1e-9


def factor_eval(alpha, z):
    """Evaluate one Blaschke factor at z (scalar or array).

    alpha must lie strictly inside the disk. alpha = 0 degenerates to -z,
    which has no pole at all; otherwise evaluation within 1e-12 of the
    pole 1/conj(alpha) is refused.
    """
    alpha = complex(alpha)
    if abs(alpha) >= 1.0:
        raise DomainError("Blaschke factor needs |alpha| < 1, got |%s|" % abs(alpha))
    z = np.asarray(z, dtype=complex)
    if alpha != 0:
        pole = 1.0 / np.conj(alpha)
        if np.any(np.abs(z - pole) <= _POLE_TOL):
            raise PoleEvaluation("evaluation point collides with the pole at %s" % pole)
    out = (alpha - z) / (1.0 - np.conj(alpha) * z)
    return complex(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class BlaschkeProduct:
    """tau * z^{n0} * prod_k B_{gamma_k}(z)^{n_k}.

    tau is unimodular, n0 counts powers of the origin factor (-z, with the
    sign folded into tau by the caller if desired), and factors is a tuple
    of (gamma, exponent) with every gamma strictly inside the disk. Zeros
    within the circle guard band are rejected: on-circle behaviour is
    handled by the equivalence machinery, never by a near-degenerate
    factor.
    """

    tau: complex = 1.0
    n0: int = 0
    factors: tuple = ()

    def __post_init__(self):
        tau = complex(self.tau)
        if abs(abs(tau) - 1.0) > 1e-12:
            raise DomainError("tau must be unimodular")
        n0 = int(self.n0)
        if n0 < 0:
            raise DomainError("n0 must be >= 0")
        cleaned = []
        for gamma, exponent in self.factors:
            gamma = complex(gamma)
            exponent = int(exponent)
            if gamma == 0:
                raise DomainError("origin zeros belong in n0, not in the factor list")
            if abs(gamma) >= 1.0 - _CIRCLE_GUARD:
                raise DomainError(
                    "factor zero %s is on or outside the guard band" % gamma
                )
            if exponent < 1:
                raise DomainError("factor exponents must be positive")
            cleaned.append((gamma, exponent))
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "factors", tuple(cleaned))

    @property
    def degree(self):
        return self.n0 + sum(e for _, e in self.factors)


def product_eval(B, z):
    """Value of the product at z (scalar or array), unimodular for |z| = 1."""
    z = np.asarray(z, dtype=complex)
    out = np.full_like(z, B.tau)
    if B.n0:
        out = out * z**B.n0
    for gamma, exponent in B.factors:
        out = out * factor_eval(gamma, z) ** exponent
    return complex(out) if out.ndim == 0 else out


def from_inside_zeros(r):
    """Blaschke product vanishing exactly at the inside-disk zeros of r.

    On-circle and outside zeros are ignored; the origin multiplicity goes
    to n0 and tau stays 1.
    """
    factors = tuple(
        (root.location, root.multiplicity) for root in r.by_label("inside")
    )
    return BlaschkeProduct(tau=1.0, n0=r.origin_mult, factors=factors)


def kappa_ratio(tf, tg):
    """The constant kappa with |f| = kappa * |g| on the unit circle.

    Takes the aligned OrbitTables of f and g from joint_orbits. Each orbit
    must carry the same total multiplicity k_inner + k_outer for f and g,
    and matched on-circle multiplicities must agree exactly; otherwise no
    constant ratio exists and ConditionViolated is raised.

    kappa multiplies |a_f / a_g| by |inner|^(k_inner(f) - k_inner(g)) over
    the inside representatives of the orbits. Origin zeros contribute
    nothing: |z| = 1 on the circle.
    """
    for (inner, _, fi, fo), (_, _, gi, go) in zip(tf.orbits, tg.orbits):
        if fi + fo != gi + go:
            raise ConditionViolated(
                "orbit at %s sums %d for f but %d for g" % (inner, fi + fo, gi + go)
            )
    for (loc, fm), (_, gm) in zip(tf.circle, tg.circle):
        if fm != gm:
            raise ConditionViolated(
                "on-circle zero at %s has multiplicity %d vs %d" % (loc, fm, gm)
            )
    kappa = abs(tf.leading) / abs(tg.leading)
    for (inner, _, fi, _), (_, _, gi, _) in zip(tf.orbits, tg.orbits):
        kappa *= abs(inner) ** (fi - gi)
    return float(kappa)
