"""The constant magnitude ratio of two polynomials on the unit circle.

When |f| = kappa |g| on the circle, f / (kappa g) is unimodular there: a
quotient of finite Blaschke products, whose factors (a - z) /
(1 - conj(a) z), |a| < 1, each have modulus one on the circle. Swapping
a root a for its reflection 1 / conj(a) scales the magnitude by |a|
alone (Beinert & Plonka, J. Fourier Anal. Appl. 21, 2015), so kappa
follows from the leading coefficients and the reflection orbits, with no
evaluation on the circle.
"""

from .errors import ConditionViolated


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
