"""Root finding and unit-circle classification for complex polynomials.

The solver iterates on all roots simultaneously from a randomly perturbed
unit-circle start, polishes each root with one Newton step, then clusters
nearby approximations into multiple roots. Every root is tagged by its
position relative to the unit circle, since the whole downstream theory
(magnitude equivalence, zero flipping, spectral factorization) branches on
inside / on-circle / outside.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricSpectrum,
    DomainError,
    NoConvergence,
    ZeroArgument,
    ZeroPolynomial,
)

# coefficients at or below this relative size count as structural zeros
_ZERO_REL = 1e-13


@dataclass(frozen=True)
class ClassifiedRoot:
    """One distinct root location with its multiplicity and circle class.

    diameter records the spread of the numerical cluster that was merged
    into this root; it stays 0 for simple well-separated roots and gives
    the caller an honest view of how blurred a multiple root was.
    """

    location: complex
    multiplicity: int
    label: str  # "inside", "on_circle" or "outside"
    diameter: float = 0.0


@dataclass(frozen=True, eq=False)
class RootMultiset:
    roots: tuple
    origin_mult: int
    degree: int
    leading_coeff: complex
    circle_band: float

    def __post_init__(self):
        total = self.origin_mult + sum(r.multiplicity for r in self.roots)
        if total != self.degree:
            raise DomainError(
                "multiplicities sum to %d but degree is %d" % (total, self.degree)
            )

    def by_label(self, label):
        return tuple(r for r in self.roots if r.label == label)


def _horner(coeffs, z):
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _horner_scale(coeffs, az):
    # running bound sum |a_i| |z|^i, used as a backward-error yardstick
    out = np.zeros_like(az)
    for c in np.abs(coeffs)[::-1]:
        out = out * az + c
    return out


def _classify(radius, band):
    if radius < 1.0 - band:
        return "inside"
    if radius > 1.0 + band:
        return "outside"
    return "on_circle"


def _modulus(z):
    # Python's abs of each entry; np.abs on a complex array can differ from
    # it in the last bit
    return np.hypot(z.real, z.imag)


def _check_tol(tol):
    if not 0.0 <= tol < np.inf:
        raise DomainError("clustering tolerance must be finite and nonnegative, got %r" % tol)


def _groups(points, tol):
    """Index groups of the points chained by |a - b| <= tol * (1 + (|a| + |b|) / 2).

    The connected components of that pairwise rule, found on one adjacency
    matrix by min-label propagation with pointer jumping. Groups come
    ordered by their smallest member, members in index order. A NaN,
    infinite or negative tol raises DomainError.
    """
    _check_tol(tol)
    z = np.asarray(points, dtype=complex)
    mag = _modulus(z)
    near = _modulus(z[:, None] - z[None, :]) <= tol * (1.0 + 0.5 * (mag[:, None] + mag[None, :]))
    np.fill_diagonal(near, True)  # a NaN point is its own group, as in a pairwise scan
    label = np.arange(len(z))
    while True:
        new = np.where(near, label, len(z)).min(axis=1, initial=len(z))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # each component is labelled by its smallest member, so a stable sort
    # by label lists the components in that order, each in index order
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1)).tolist()
    return [order[i:j] for i, j in zip(starts, starts[1:] + [len(z)])]


def find_roots(
    f,
    tol=1e-8,
    circle_band=1e-9,
    cluster_radius=1e-6,
    max_iter=200,
    seed=12345,
):
    """All roots of f with multiplicities, classified against the unit circle.

    Parameters
    ----------
    f : CoeffPoly
        Nonzero polynomial.
    tol : float
        Acceptance threshold, in (0, 1e-4]: the roots must reproduce the
        coefficients to tol * max|coeff| when multiplied back out.
    circle_band : float
        Half-width of the on-circle classification band.
    cluster_radius : float
        Approximations a, b with |a - b| <= cluster_radius * (1 + (|a| + |b|) / 2),
        and chains of them, merge into one root of higher multiplicity.
        Widen it when hunting multiplicities of three or more; the default
        suits exact doubles. NaN, infinite or negative raises DomainError.
    max_iter : int
        Simultaneous-iteration budget before giving up.
    seed : int
        Seed for the perturbed-circle initial guesses, >= 0. Fixed by
        default so runs are reproducible; a negative seed raises DomainError.
    """
    if not (0 < tol <= 1e-4):
        raise DomainError("tol must lie in (0, 1e-4]")
    if seed < 0:
        raise DomainError("seed must be >= 0, got %d" % seed)
    _check_tol(cluster_radius)
    coeffs = np.array(f.coeffs, dtype=complex)
    if np.all(coeffs == 0):
        raise ZeroPolynomial("cannot factor the zero polynomial")

    top = np.abs(coeffs).max()
    keep = np.abs(coeffs) > _ZERO_REL * top
    deg = int(np.nonzero(keep)[0][-1])
    origin = int(np.nonzero(keep)[0][0])
    core = coeffs[origin : deg + 1]
    core_deg = len(core) - 1
    leading = complex(core[-1])

    if core_deg == 0:
        return RootMultiset(
            roots=(),
            origin_mult=origin,
            degree=origin,
            leading_coeff=leading,
            circle_band=circle_band,
        )

    a = core / core[-1]
    d = core_deg
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * (np.arange(d) + 0.25 * rng.random(d)) / d
    radii = 1.0 + 0.2 * (rng.random(d) - 0.5)
    z = radii * np.exp(1j * angles)

    da = a[1:] * np.arange(1, d + 1)
    eps_stop = 8 * np.finfo(float).eps
    converged = np.zeros(d, dtype=bool)

    for _ in range(max_iter):
        pz = _horner(a, z)
        sz = _horner_scale(a, np.abs(z)) + np.finfo(float).tiny
        converged = np.abs(pz) <= eps_stop * sz
        if converged.all():
            break
        dpz = _horner(da, z)
        dpz = np.where(dpz == 0, np.finfo(float).tiny, dpz)
        w = pz / dpz
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        s = inv.sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, np.finfo(float).tiny, denom)
        step = np.where(converged, 0.0, w / denom)
        z = z - step

    # one polishing Newton pass per root
    pz = _horner(a, z)
    dpz = _horner(da, z)
    safe = np.abs(dpz) > 0
    z = np.where(safe, z - pz / np.where(safe, dpz, 1.0), z)

    pz = _horner(a, z)
    sz = _horner_scale(a, np.abs(z)) + np.finfo(float).tiny
    rel = np.abs(pz) / sz
    if rel.max() > tol:
        raise NoConvergence(
            "simultaneous iteration did not settle within %d steps" % max_iter,
            residual=float(rel.max()),
        )

    roots = []
    for idx in _groups(z, cluster_radius):
        pts = z[idx]
        loc = complex(np.mean(pts))
        diam = float(_modulus(pts[:, None] - pts[None, :]).max())
        # a merged cluster locates its root only to about half its own
        # spread, so the circle test must not be sharper than that
        roots.append(
            ClassifiedRoot(
                location=loc,
                multiplicity=len(idx),
                label=_classify(abs(loc), max(circle_band, 0.5 * diam)),
                diameter=diam,
            )
        )
    roots.sort(key=lambda r: (r.location.real, r.location.imag))

    return RootMultiset(
        roots=tuple(roots),
        origin_mult=origin,
        degree=deg,
        leading_coeff=leading,
        circle_band=circle_band,
    )


def reconstruct(r):
    """Multiply the factored form back out to ascending coefficients."""
    from .signals import CoeffPoly

    c = np.array([r.leading_coeff], dtype=complex)
    for root in r.roots:
        factor = np.array([-root.location, 1.0], dtype=complex)
        for _ in range(root.multiplicity):
            c = np.convolve(c, factor)
    if r.origin_mult:
        c = np.concatenate([np.zeros(r.origin_mult, dtype=complex), c])
    return CoeffPoly(coeffs=c, n=r.degree)


def conj_reciprocal(alpha):
    """Reflection of alpha across the unit circle, 1 / conj(alpha)."""
    alpha = complex(alpha)
    if alpha == 0:
        raise ZeroArgument("the origin has no reciprocal conjugate")
    return 1.0 / np.conj(alpha)


@dataclass(frozen=True)
class ReciprocalOrbit:
    """A pair of root locations exchanged by circle reflection.

    inner always lies strictly inside the disk and is the canonical
    representative; outer is its reflection. Either multiplicity may be
    zero when only one side is actually a root.
    """

    inner: complex
    outer: complex
    mult_inner: int
    mult_outer: int

    @property
    def total(self):
        return self.mult_inner + self.mult_outer


def _orbit_key(location):
    # canonical inside-disk representative of the reflection orbit
    return location if abs(location) < 1.0 else conj_reciprocal(location)


def _orbit_groups(multisets, match_tol):
    """Reflection orbits of the off-circle roots of one or more multisets.

    Roots whose orbit keys group under match_tol form one orbit. Returns a
    list of (inner, outer, counts) sorted by inner, where counts holds one
    [inner multiplicity, outer multiplicity] pair per multiset.
    """
    off = [(k, root) for k, r in enumerate(multisets)
           for root in r.roots if root.label != "on_circle"]
    orbits = []
    for idx in _groups([_orbit_key(root.location) for _, root in off], match_tol):
        counts = [[0, 0] for _ in multisets]
        locs = ([], [])
        for i in idx:
            k, root = off[i]
            side = 0 if root.label == "inside" else 1
            counts[k][side] += root.multiplicity
            locs[side].append(root.location)
        inner = complex(np.mean(locs[0])) if locs[0] else conj_reciprocal(
            complex(np.mean(locs[1]))
        )
        outer = complex(np.mean(locs[1])) if locs[1] else conj_reciprocal(inner)
        orbits.append((inner, outer, counts))
    orbits.sort(key=lambda o: (o[0].real, o[0].imag))
    return orbits


def pair_reciprocal(r, assert_symmetric=False, match_tol=1e-6):
    """Group the off-circle roots of one multiset into reflection orbits.

    Returns (orbits, on_circle, origin_mult) where orbits is a tuple of
    ReciprocalOrbit sorted by representative and on_circle is the tuple of
    on-circle ClassifiedRoots. Roots join one orbit when their inside-disk
    representatives group under match_tol by the cluster rule of find_roots.

    With assert_symmetric=True the caller states that r came from a valid
    measurement lift, which forces equal multiplicities on both sides of
    every orbit and even multiplicities on the circle; violations raise
    AsymmetricSpectrum.
    """
    orbits = [
        ReciprocalOrbit(inner=inner, outer=outer, mult_inner=f[0], mult_outer=f[1])
        for inner, outer, (f,) in _orbit_groups((r,), match_tol)
    ]

    on_circle = r.by_label("on_circle")
    if assert_symmetric:
        for orbit in orbits:
            if orbit.mult_inner != orbit.mult_outer:
                raise AsymmetricSpectrum(
                    "orbit at %s has multiplicities %d inside vs %d outside"
                    % (orbit.inner, orbit.mult_inner, orbit.mult_outer)
                )
        for root in on_circle:
            if root.multiplicity % 2:
                raise AsymmetricSpectrum(
                    "on-circle root at %s has odd multiplicity %d"
                    % (root.location, root.multiplicity)
                )
    return tuple(orbits), on_circle, r.origin_mult


@dataclass(frozen=True)
class JointOrbit:
    """Reflection orbit with per-polynomial multiplicities for a pair (f, g)."""

    inner: complex
    outer: complex
    f_inner: int
    f_outer: int
    g_inner: int
    g_outer: int

    @property
    def f_total(self):
        return self.f_inner + self.f_outer

    @property
    def g_total(self):
        return self.g_inner + self.g_outer


def joint_orbits(rf, rg, match_tol=1e-6):
    """Reflection orbits over the union of two root multisets.

    Returns (orbits, circle_pairs) where circle_pairs is a tuple of
    (location, f_mult, g_mult) for matched on-circle roots. Roots of the
    two polynomials are matched as in pair_reciprocal, on-circle roots by
    their locations, under match_tol; the polynomials themselves are never
    compared coefficient-wise here.
    """
    orbits = [
        JointOrbit(inner=inner, outer=outer,
                   f_inner=f[0], f_outer=f[1], g_inner=g[0], g_outer=g[1])
        for inner, outer, (f, g) in _orbit_groups((rf, rg), match_tol)
    ]

    circle = [(k, root) for k, r in enumerate((rf, rg)) for root in r.by_label("on_circle")]
    locs = [root.location for _, root in circle]
    circle_pairs = []
    for idx in _groups(locs, match_tol):
        mults = [0, 0]
        for i in idx:
            mults[circle[i][0]] += circle[i][1].multiplicity
        circle_pairs.append((complex(np.mean([locs[i] for i in idx])), *mults))
    circle_pairs.sort(key=lambda item: (item[0].real, item[0].imag))

    return tuple(orbits), tuple(circle_pairs)
