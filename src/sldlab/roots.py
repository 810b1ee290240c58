"""Root finding and unit-circle classification for complex polynomials.

The solver is the Aberth-Ehrlich simultaneous iteration from a randomly
perturbed unit-circle start. It solves a batch of polynomials at once
(find_roots is the batch of one), sharing each numpy call of the Horner
passes while every polynomial's roots step only against each other, so
each result is bit for bit the one found alone. A root whose residual
reaches rounding level is frozen and drops out of the passes. Each root is
then polished with one Newton step, and nearby approximations are
clustered into multiple roots. Every root is tagged by its
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
_TINY = np.finfo(float).tiny
# a root whose residual is below this multiple of its bound has settled
_EPS_STOP = 8 * np.finfo(float).eps


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


def _sweep(rows, radius, link):
    """Group id per row of a 2-D complex array, numbered by first appearance.

    link(i, j) says which pairs (i_k, j_k) of two index arrays link, and
    linked rows chain into one group. Rows that link must differ by at
    most radius in every coefficient, so over w coefficients the projection
    p = sum_k (Re a_k + Im a_k) moves by at most sqrt(2) * w * radius,
    so the reach in p is 2w * radius. p is one sum over the 2w real parts
    of a row, in whatever order numpy adds them, so it is off by at most
    (2w - 1) * eps/2 times the row's l1 norm; the rounding of two rows' p
    together stays under 2w * eps times the largest l1 norm, which the
    reach's slack of 8w * eps times that norm, and the slack up from
    sqrt(2), absorb. Consecutive rows in p order that link form chains,
    and only pairs of different chains within reach are compared, so a
    bin of near-identical rows costs one pass. A reach that is not finite
    compares every pair.
    """
    n, width = rows.shape
    parts = np.ascontiguousarray(rows).view(float)
    proj = parts.sum(axis=1)
    l1 = np.abs(parts).sum(axis=1)
    reach = 2 * width * radius + 8 * width * np.finfo(float).eps * l1.max(initial=0.0)

    order = np.argsort(proj, kind="stable")
    swept = proj[order]
    if np.all(np.diff(swept) > reach):
        return np.arange(n)  # no row is within reach of the next: nothing links
    linked = link(order[1:], order[:-1])
    chain = np.concatenate([[0], np.cumsum(~linked)])
    chain_end = np.append(np.flatnonzero(~linked) + 1, n)[chain]

    # sorted position s is compared with [chain_end_s, end of its reach),
    # 1M coefficient pairs per block so the comparison arrays stay near 4M
    stop = np.searchsorted(swept, swept + reach, side="right") if np.isfinite(reach) else n
    count = np.maximum(stop - chain_end, 0)
    end = np.cumsum(count)
    links = [np.empty((2, 0), dtype=np.intp)]
    step = max(1, 1_000_000 // width)
    for t0 in range(0, int(end[-1]), step):
        t = np.arange(t0, min(int(end[-1]), t0 + step))
        s = np.searchsorted(end, t, side="right")
        u = chain_end[s] + t - (end[s] - count[s])
        hit = link(order[s], order[u])
        links.append(chain[np.stack([s[hit], u[hit]])])

    a, b = np.hstack(links)
    groups = chain[-1] + 1
    if a.size:
        # union the chains the cross links join: hook the larger root of each
        # link under the smaller, then point every chain at its root
        root = np.arange(groups)
        while np.any(root[a] != root[b]):
            np.minimum.at(root, np.maximum(root[a], root[b]), np.minimum(root[a], root[b]))
            while np.any(root[root] != root):
                root = root[root]
        chain = root[chain]
    elif groups == n:
        return np.arange(n)  # nothing links: each row is a group of its own
    # a group first appears at its smallest row index
    first = np.full(groups, n)
    np.minimum.at(first, chain, order)
    label = np.empty(n, dtype=np.intp)
    label[order] = first[chain]
    return (np.cumsum(label == np.arange(n)) - 1)[label]


def _groups(points, tol):
    """Index groups of the points chained by |a - b| <= tol * (1 + (|a| + |b|) / 2).

    The connected components of that pairwise rule, found by _sweep: a
    linked gap is at most tol * (1 + max |z|). Groups come ordered by
    their smallest member, members in index order. A NaN, infinite or
    negative tol raises DomainError.
    """
    _check_tol(tol)
    z = np.asarray(points, dtype=complex)
    mag = _modulus(z)
    ids = _sweep(z[:, None], tol * (1.0 + mag.max(initial=0.0)),
                 lambda i, j: _modulus(z[i] - z[j]) <= tol * (1.0 + 0.5 * (mag[i] + mag[j])))
    order = np.argsort(ids, kind="stable")
    ends = np.cumsum(np.bincount(ids)).tolist()
    return [order[i:j] for i, j in zip([0] + ends, ends)]


def _centroid(points):
    """complex(np.mean(points)) by the same reduction, without np.mean's overhead."""
    return complex(np.add.reduce(points) / len(points))


def _horner(coef, z):
    """Horner's rule for p(z), the bound sum |a_i| |z|^i and p'(z) at once.

    coef has shape (rows, 3, len(z)): one row per power, highest first,
    holding a_i, |a_i| and the p' coefficient of each root's own
    polynomial. A leading zero row leaves an exact +0, so a column padded
    to a higher degree gets the bits of its own degree. The bound rides in
    the complex pass as |z| + 0j, which is exact until a product
    overflows; then 0 * inf turns its inf into NaN, so those columns are
    redone in real arithmetic.
    """
    az = np.abs(z)
    zs = np.empty((3, len(z)), dtype=complex)
    zs[0] = zs[2] = z
    zs[1] = az
    out = np.zeros(zs.shape, dtype=complex)
    for c in coef:
        np.multiply(out, zs, out=out)
        np.add(out, c, out=out)
    pz, bound, dpz = out
    bound = bound.real
    if not np.isfinite(bound).all():
        over = ~np.isfinite(bound)
        real = np.zeros(int(over.sum()))
        for c in coef[:, 1, over].real:
            real = real * az[over] + c
        bound[over] = real
    return pz, bound + _TINY, dpz


def _aberth_sums(z, rows):
    """The sum over j != i of 1 / (z_i - z_j) for each i in rows.

    Each row is summed over the whole of z on its own, so its bits do not
    depend on which other rows are asked for.
    """
    diff = z[rows, None] - z[None, :]
    diag = (np.arange(len(rows)), rows)
    diff[diag] = 1.0
    inv = 1.0 / diff
    inv[diag] = 0.0
    return inv.sum(axis=1)


def _solve(monics, seed, max_iter):
    """Aberth-Ehrlich iteration over a batch of monic polynomials.

    Each polynomial starts from its own seeded perturbed circle and its
    roots step only against each other, so they come out bit for bit as
    if it were solved alone: the batch shares the numpy calls of each
    Horner pass and nothing else. A root whose residual reaches rounding
    level is frozen, since its step would be exactly zero from then on,
    and a polynomial stops when all its roots are frozen. Returns every
    root after one polishing Newton pass, in batch order, and the relative
    residual of each.
    """
    degs = [len(a) - 1 for a in monics]
    starts = np.cumsum([0] + degs).tolist()
    top = max(degs)
    coef = np.zeros((top + 1, 3, starts[-1]), dtype=complex)
    z = np.empty(starts[-1], dtype=complex)
    for a, lo, d in zip(monics, starts, degs):
        cols = slice(lo, lo + d)
        coef[top - d :, 0, cols] = a[::-1, None]
        coef[top - d :, 1, cols] = np.abs(a)[::-1, None]
        coef[top - d + 1 :, 2, cols] = (a[1:] * np.arange(1, d + 1))[::-1, None]
        rng = np.random.default_rng(seed)
        angles = 2 * np.pi * (np.arange(d) + 0.25 * rng.random(d)) / d
        radii = 1.0 + 0.2 * (rng.random(d) - 0.5)
        z[cols] = radii * np.exp(1j * angles)

    # ev: the roots each Horner pass evaluates; live: the roots still moving;
    # blocks: (a polynomial's roots, its entries in live), per moving polynomial
    ev = live = np.arange(starts[-1])
    sub = coef
    blocks = [(lo, hi, lo, hi) for lo, hi in zip(starts, starts[1:])]
    for _ in range(max_iter):
        pz, bound, dpz = _horner(sub, z[ev])
        # a frozen root that is still evaluated settles again, its z unchanged
        moving = ~(np.abs(pz) <= _EPS_STOP * bound)
        if not moving.all():
            live, pz, dpz = ev[moving], pz[moving], dpz[moving]
            if not live.size:
                break
            cuts = np.searchsorted(live, starts).tolist()
            blocks = [(lo, hi, i, j) for lo, hi, i, j
                      in zip(starts, starts[1:], cuts, cuts[1:]) if i < j]
            # a gather of the columns costs about one pass, so it waits
            # until half the evaluated roots are frozen
            if 2 * live.size <= ev.size:
                ev = live
                sub = coef[top - max(hi - lo for lo, hi, _, _ in blocks) :, :, ev]
        s = np.concatenate([_aberth_sums(z[lo:hi], live[i:j] - lo) for lo, hi, i, j in blocks])
        dpz = np.where(dpz == 0, _TINY, dpz)
        w = pz / dpz
        denom = 1.0 - w * s
        denom = np.where(denom == 0, _TINY, denom)
        z[live] -= w / denom

    # one polishing Newton pass per root
    pz, _, dpz = _horner(coef, z)
    safe = np.abs(dpz) > 0
    z = np.where(safe, z - pz / np.where(safe, dpz, 1.0), z)
    pz, bound, _ = _horner(coef, z)
    return z, np.abs(pz) / bound


def _cluster(z, cluster_radius, circle_band):
    """Merged, classified roots of one polynomial, sorted by location."""
    roots = []
    for idx in _groups(z, cluster_radius):
        pts = z[idx]
        loc = _centroid(pts)
        radius = abs(loc)
        if len(idx) == 1 and radius < np.inf:
            diam = 0.0  # the spread of one finite point
        else:
            diam = float(_modulus(pts[:, None] - pts[None, :]).max())
        # a merged cluster locates its root only to about half its own
        # spread, so the circle test must not be sharper than that
        roots.append(
            ClassifiedRoot(
                location=loc,
                multiplicity=len(idx),
                label=_classify(radius, max(circle_band, 0.5 * diam)),
                diameter=diam,
            )
        )
    roots.sort(key=lambda r: (r.location.real, r.location.imag))
    return tuple(roots)


def find_roots_batch(
    polys,
    tol=1e-8,
    circle_band=1e-9,
    cluster_radius=1e-6,
    max_iter=200,
    seed=12345,
):
    """find_roots for every polynomial of a sequence, in one iteration.

    Returns a tuple with one RootMultiset per polynomial, each the one
    find_roots gives for that polynomial alone; the parameters are
    find_roots's and apply to every member. Errors come in the order
    find_roots raises them: DomainError for tol, seed or cluster_radius,
    then ZeroPolynomial for the first zero member, then DomainError for
    the first member with a NaN or infinite coefficient, then
    NoConvergence for the first member whose roots did not settle.
    """
    if not (0 < tol <= 1e-4):
        raise DomainError("tol must lie in (0, 1e-4]")
    if seed < 0:
        raise DomainError("seed must be >= 0, got %d" % seed)
    _check_tol(cluster_radius)
    coeffs = [np.array(f.coeffs, dtype=complex) for f in polys]
    if any(np.all(c == 0) for c in coeffs):
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if not all(np.all(np.isfinite(c)) for c in coeffs):
        raise DomainError("polynomial coefficients must be finite")
    members = []
    for c in coeffs:
        mags = np.abs(c)
        keep = np.flatnonzero(mags > _ZERO_REL * mags.max())
        members.append((int(keep[0]), int(keep[-1]), c[keep[0] : keep[-1] + 1]))

    monics = [core / core[-1] for _, _, core in members if len(core) > 1]
    z, rel = _solve(monics, seed, max_iter) if monics else (None, None)
    out = []
    lo = 0
    for origin, deg, core in members:
        hi = lo + len(core) - 1
        # a NaN residual (an iterate that overflowed) fails the test too
        if hi > lo and not (rel[lo:hi].max() <= tol):
            raise NoConvergence(
                "simultaneous iteration did not settle within %d steps" % max_iter,
                residual=float(rel[lo:hi].max()),
            )
        out.append(
            RootMultiset(
                roots=_cluster(z[lo:hi], cluster_radius, circle_band) if hi > lo else (),
                origin_mult=origin,
                degree=deg,
                leading_coeff=complex(core[-1]),
                circle_band=circle_band,
            )
        )
        lo = hi
    return tuple(out)


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
    return find_roots_batch((f,), tol, circle_band, cluster_radius, max_iter, seed)[0]


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
        inner = _centroid(locs[0]) if locs[0] else conj_reciprocal(_centroid(locs[1]))
        outer = _centroid(locs[1]) if locs[1] else conj_reciprocal(inner)
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
        circle_pairs.append((_centroid([locs[i] for i in idx]), *mults))
    circle_pairs.sort(key=lambda item: (item[0].real, item[0].imag))

    return tuple(orbits), tuple(circle_pairs)
