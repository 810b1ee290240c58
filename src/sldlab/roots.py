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


def _cluster(points, radius):
    """Greedy union of points closer than the (size-scaled) cluster radius."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(points[i] - points[j])
            scale = 1.0 + 0.5 * (abs(points[i]) + abs(points[j]))
            if gap <= radius * scale:
                parent[find(i)] = find(j)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(points[i])
    return list(groups.values())


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
        Roots closer than cluster_radius * (1 + |location|) merge into one
        root of higher multiplicity. Widen it when hunting multiplicities
        of three or more; the default suits exact doubles.
    max_iter : int
        Simultaneous-iteration budget before giving up.
    seed : int
        Seed for the perturbed-circle initial guesses. Fixed by default so
        runs are reproducible.
    """
    if not (0 < tol <= 1e-4):
        raise DomainError("tol must lie in (0, 1e-4]")
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
    for group in _cluster(list(z), cluster_radius):
        loc = complex(np.mean(group))
        diam = 0.0
        if len(group) > 1:
            pts = np.asarray(group)
            diam = float(
                max(abs(pts[i] - pts[j]) for i in range(len(pts)) for j in range(i))
            )
        # a merged cluster locates its root only to about half its own
        # spread, so the circle test must not be sharper than that
        roots.append(
            ClassifiedRoot(
                location=loc,
                multiplicity=len(group),
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


def _match_clusters(tagged, match_tol):
    """Cluster (key_location, payload) pairs whose keys agree within tolerance."""
    n = len(tagged)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            scale = 1.0 + 0.5 * (abs(tagged[i][0]) + abs(tagged[j][0]))
            if abs(tagged[i][0] - tagged[j][0]) <= match_tol * scale:
                parent[find(i)] = find(j)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(tagged[i])
    return list(groups.values())


def pair_reciprocal(r, assert_symmetric=False, match_tol=1e-6):
    """Group the off-circle roots of one multiset into reflection orbits.

    Returns (orbits, on_circle, origin_mult) where orbits is a tuple of
    ReciprocalOrbit sorted by representative and on_circle is the tuple of
    on-circle ClassifiedRoots.

    With assert_symmetric=True the caller states that r came from a valid
    measurement lift, which forces equal multiplicities on both sides of
    every orbit and even multiplicities on the circle; violations raise
    AsymmetricSpectrum.
    """
    off = [root for root in r.roots if root.label != "on_circle"]
    tagged = [(_orbit_key(root.location), root) for root in off]

    orbits = []
    for group in _match_clusters(tagged, match_tol):
        inner_locs, inner_mult = [], 0
        outer_locs, outer_mult = [], 0
        for _, root in group:
            if root.label == "inside":
                inner_locs.append(root.location)
                inner_mult += root.multiplicity
            else:
                outer_locs.append(root.location)
                outer_mult += root.multiplicity
        inner = complex(np.mean(inner_locs)) if inner_locs else conj_reciprocal(
            complex(np.mean(outer_locs))
        )
        outer = complex(np.mean(outer_locs)) if outer_locs else conj_reciprocal(inner)
        orbits.append(
            ReciprocalOrbit(
                inner=inner,
                outer=outer,
                mult_inner=inner_mult,
                mult_outer=outer_mult,
            )
        )
    orbits.sort(key=lambda o: (o.inner.real, o.inner.imag))

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
    two polynomials are matched by nearest location within match_tol, the
    polynomials themselves are never compared coefficient-wise here.
    """
    tagged = []
    for which, r in (("f", rf), ("g", rg)):
        for root in r.roots:
            if root.label != "on_circle":
                tagged.append((_orbit_key(root.location), (which, root)))

    orbits = []
    for group in _match_clusters(tagged, match_tol):
        counts = {"f": [0, 0], "g": [0, 0]}  # [inner, outer]
        inner_locs, outer_locs = [], []
        for _, (which, root) in group:
            side = 0 if root.label == "inside" else 1
            counts[which][side] += root.multiplicity
            (inner_locs if side == 0 else outer_locs).append(root.location)
        inner = complex(np.mean(inner_locs)) if inner_locs else conj_reciprocal(
            complex(np.mean(outer_locs))
        )
        outer = complex(np.mean(outer_locs)) if outer_locs else conj_reciprocal(inner)
        orbits.append(
            JointOrbit(
                inner=inner,
                outer=outer,
                f_inner=counts["f"][0],
                f_outer=counts["f"][1],
                g_inner=counts["g"][0],
                g_outer=counts["g"][1],
            )
        )
    orbits.sort(key=lambda o: (o.inner.real, o.inner.imag))

    tagged_circle = []
    for which, r in (("f", rf), ("g", rg)):
        for root in r.by_label("on_circle"):
            tagged_circle.append((root.location, (which, root)))
    circle_pairs = []
    for group in _match_clusters(tagged_circle, match_tol):
        loc = complex(np.mean([g[0] for g in group]))
        fm = sum(root.multiplicity for _, (w, root) in group if w == "f")
        gm = sum(root.multiplicity for _, (w, root) in group if w == "g")
        circle_pairs.append((loc, fm, gm))
    circle_pairs.sort(key=lambda item: (item[0].real, item[0].imag))

    return tuple(orbits), tuple(circle_pairs)
