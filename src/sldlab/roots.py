"""Root finding and unit-circle classification for complex polynomials.

The solver is the Aberth-Ehrlich simultaneous iteration from a randomly
perturbed unit-circle start. It solves a batch of polynomials at once
(find_roots is the batch of one), sharing each numpy call of the Horner
passes, and of the Aberth sums among polynomials of one degree, while
every polynomial's roots step only against each other, so
each result is bit for bit the one found alone. Its settings are fixed
module constants that no caller changes: the start seed _SEED, the
residual tolerance _ROOT_TOL and the on-circle band _CIRCLE_BAND. A root
whose residual reaches rounding level is frozen and drops out of the
passes. Each root is then polished with one Newton step, and nearby
approximations are clustered into multiple roots. Every root is tagged
by its position relative to the unit circle, since the whole downstream theory
(magnitude equivalence, zero flipping, spectral factorization) branches on
inside / on-circle / outside. A polynomial's roots stay arrays from the
solver to its orbit table: clustering, orbit matching and circle matching
work on whole arrays of roots, and only a group of two or more roots takes
a centroid of its own.
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
# a trimmed end must split off its own roots: the Newton-polygon size of
# the largest root it drops stays this factor below the smallest it keeps
_SPLIT = 1e-3
_TINY = np.finfo(float).tiny
# a root whose residual is below this multiple of its bound has settled
_EPS_STOP = 8 * np.finfo(float).eps
# the fixed root-finding settings, which every CLI report records:
# acceptance tolerance, on-circle band and start seed
_ROOT_TOL = 1e-8
_CIRCLE_BAND = 1e-9
_SEED = 12345
# simultaneous-iteration steps before NoConvergence
_MAX_ITER = 200
# orbit keys and circle roots within this cluster rule are one location
_MATCH_TOL = 1e-6
# find_roots merges root approximations within this cluster rule
_CLUSTER_RADIUS = 1e-6
# rows _row_max walks a column of at a time: 8,192 rows of 17 floats fit a 2 MB L2
_WALK_ROWS = 8192
_NO_RECIPROCAL = "the origin has no reciprocal conjugate"


@dataclass(frozen=True, eq=False)
class RootMultiset:
    """The distinct roots of a polynomial off the origin, sorted by location.

    Read-only arrays with one entry per distinct root: locations
    (complex), multiplicities (int), labels ("inside", "on_circle" or
    "outside") and diameters, the spread of the numerical cluster merged
    into each root. A diameter stays 0 for a simple well-separated root
    and gives the caller an honest view of how blurred a multiple root was.
    """

    locations: np.ndarray
    multiplicities: np.ndarray
    labels: np.ndarray
    diameters: np.ndarray
    origin_mult: int
    degree: int
    leading_coeff: complex

    def __post_init__(self):
        for array in (self.locations, self.multiplicities, self.labels, self.diameters):
            array.flags.writeable = False
        total = self.origin_mult + int(self.multiplicities.sum())
        if total != self.degree:
            raise DomainError(
                "multiplicities sum to %d but degree is %d" % (total, self.degree)
            )


# a root's label by whether |z| < 1 - band, neither, or |z| > 1 + band
_LABELS = np.array(("inside", "on_circle", "outside"))


def _modulus(z):
    # Python's abs of each entry; np.abs on a complex array can differ from
    # it in the last bit
    return np.hypot(z.real, z.imag)


def _trimmed(mags, cut):
    """How many leading coefficients of |a| (ascending) count as structural zeros.

    At most cut of them, the leading run at or below _ZERO_REL of the
    largest. A trim of k drops the k smallest roots, so it stands only
    where those split off: every Newton-polygon root size (|a_j| /
    |a_k|)^(1 / (k - j)), j < k, must stay _SPLIT below each
    (|a_k| / |a_j|)^(1 / (j - k)), j > k; the trim shrinks until one
    does, down to none. Otherwise a tiny end whose roots sit in a cluster
    with kept ones, like the lags eps^2, 2 eps, 1 of a double root at
    -eps, would put one root of the cluster at the origin and move the
    rest.
    """
    if not cut:
        return 0
    with np.errstate(divide="ignore"):
        logs = np.log(mags)
    j = np.arange(len(mags))
    for k in range(cut, 0, -1):
        if mags[k] == 0:
            continue
        right = j[k + 1 :][mags[k + 1 :] > 0]
        dropped = np.max((logs[:k] - logs[k]) / (k - j[:k]))
        kept = np.min((logs[k] - logs[right]) / (right - k), initial=np.inf)
        if dropped <= np.log(_SPLIT) + kept:
            return k
    return 0


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
    sqrt(2), absorb. So link only ever sees pairs within reach in p:
    consecutive rows in p order that are within reach (or whose p is NaN)
    are compared and, where they link, form chains, and then only pairs of
    different chains within reach are compared, so a bin of near-identical
    rows costs one pass, and rows that form one chain are one group with
    nothing more to compare. A reach that is not finite compares every pair.
    """
    n, width = rows.shape
    parts = np.ascontiguousarray(rows).view(float)
    proj = parts.sum(axis=1)
    l1 = np.abs(parts).sum(axis=1)
    reach = 2 * width * radius + 8 * width * np.finfo(float).eps * l1.max(initial=0.0)

    order = np.argsort(proj, kind="stable")
    swept = proj[order]
    # written as not > so a NaN projection is still compared
    near = np.flatnonzero(~(np.diff(swept) > reach))
    if not near.size:
        return np.arange(n)  # no row is within reach of the next: nothing links
    linked = np.zeros(n - 1, dtype=bool)
    linked[near] = link(order[near + 1], order[near])
    if linked.all():
        return np.zeros(n, dtype=np.intp)  # one chain holds every row: one group
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


def _row_max(x):
    """x.max(axis=1) of a 2-D array bit for bit (but for the sign of a zero), or
    for a bool x the first-true index np.argmax(x, axis=1) gives.

    numpy reduces a row at a time, some 60 ns a row up to about 80 columns,
    while a walk down the columns costs 0.6 us a column and 0.7 ns an entry:
    so from w * w rows of w columns on, the columns are walked, _WALK_ROWS
    rows at a time so that each walk reads from cache.
    """
    n, w = x.shape
    if n < w * w:
        return np.argmax(x, axis=1) if x.dtype == bool else x.max(axis=1)
    out = np.zeros(n, dtype=np.intp) if x.dtype == bool else np.empty(n, dtype=x.dtype)
    for lo in range(0, n, _WALK_ROWS):
        rows, part = x[lo : lo + _WALK_ROWS], out[lo : lo + _WALK_ROWS]
        if x.dtype == bool:
            for k in range(w - 1, -1, -1):
                np.copyto(part, k, where=rows[:, k])
        else:
            part[...] = rows[:, 0]
            for k in range(1, w):
                np.maximum(part, rows[:, k], out=part)
    return out


def _link_ids(z, tol):
    """Group id per point of a complex array, numbered by first appearance.

    The connected components of the points chained by |a - b| <= tol * (1
    + (|a| + |b|) / 2), found by _sweep: a linked gap is at most tol * (1
    + max |z|).
    """
    mag = _modulus(z)
    return _sweep(z[:, None], tol * (1.0 + mag.max(initial=0.0)),
                  lambda i, j: _modulus(z[i] - z[j]) <= tol * (1.0 + 0.5 * (mag[i] + mag[j])))


def _members(ids, count=0):
    """(order, start, size): order[start[i] : start[i] + size[i]] are the
    indices that hold id i, in index order, for each of at least count ids."""
    size = np.bincount(ids, minlength=count)
    return np.argsort(ids, kind="stable"), np.cumsum(size) - size, size


def _centroid(points):
    """complex(np.mean(points)) by the same reduction, without np.mean's overhead."""
    return complex(np.add.reduce(points) / len(points))


def _centroids(z, order, start, size):
    """The _centroid of each group order[start[i] : start[i] + size[i]] of z, 0 for an empty one.

    Groups of one point take the same reduction all at once, so a signed
    zero still turns to +0; only a larger group takes a centroid of its own.
    """
    out = np.zeros(size.size, dtype=complex)
    one = np.flatnonzero(size == 1)
    out[one] = np.add.reduce(z[order[start[one]], None], axis=1) / 1
    for g in np.flatnonzero(size > 1).tolist():
        out[g] = _centroid(z[order[start[g] : start[g] + size[g]]])
    return out


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


def _aberth_plan(live, deg, rank, col, blocks):
    """The stacked Aberth passes over the roots in live, one per degree.

    blocks maps each degree to the indices of its polynomials' roots, one
    row per polynomial; rank is each root's row there and col its column.
    A pass is (where, rows, block, rank of rows, (i, col of row i)): where
    picks its rows out of live, None when one degree holds them all.
    """
    plan = []
    for d, block in blocks.items():
        where = None if len(blocks) == 1 else deg[live] == d
        rows = live if where is None else live[where]
        if rows.size:
            plan.append((where, rows, block, rank[rows], (np.arange(rows.size), col[rows])))
    return plan


def _aberth_sums(z, plan):
    """The sum over j != i of 1 / (z_i - z_j), j over the roots of i's own
    polynomial, for each root i of the plan's passes, in live order.

    The polynomials of one degree share one pass, and each row is summed
    over its own polynomial's roots alone, so its bits do not depend on
    which other rows are asked for.
    """
    out = []
    for where, rows, block, blk, diag in plan:
        diff = z[block][blk]
        np.subtract(z[rows, None], diff, out=diff)
        diff[diag] = 1.0
        np.divide(1.0, diff, out=diff)
        diff[diag] = 0.0
        out.append(diff.sum(axis=1))
    if len(out) == 1:
        return out[0]
    s = np.empty(sum(map(len, out)), dtype=complex)
    for (where, *_), part in zip(plan, out):
        s[where] = part
    return s


def _solve(monics):
    """Aberth-Ehrlich iteration over a batch of monic polynomials.

    Each polynomial starts from the _SEED-perturbed circle of its degree
    and its roots step only against each other, so they come out bit for
    bit as if it were solved alone: the batch shares the numpy calls of
    each Horner pass, and polynomials of one degree share those of the
    Aberth sums. A root whose residual reaches rounding level is frozen,
    since its step would be exactly zero from then on, and a polynomial
    stops when all its roots are frozen. Returns every root after one
    polishing Newton pass, in batch order, and the relative residual of
    each.
    """
    degs = [len(a) - 1 for a in monics]
    starts = np.cumsum([0] + degs).tolist()
    top = max(degs)
    coef = np.zeros((top + 1, 3, starts[-1]), dtype=complex)
    z = np.empty(starts[-1], dtype=complex)
    circles, blocks, rank = {}, {}, []
    for a, lo, d in zip(monics, starts, degs):
        cols = slice(lo, lo + d)
        coef[top - d :, 0, cols] = a[::-1, None]
        coef[top - d :, 1, cols] = np.abs(a)[::-1, None]
        coef[top - d + 1 :, 2, cols] = (a[1:] * np.arange(1, d + 1))[::-1, None]
        if d not in circles:
            rng = np.random.default_rng(_SEED)
            angles = 2 * np.pi * (np.arange(d) + 0.25 * rng.random(d)) / d
            radii = 1.0 + 0.2 * (rng.random(d) - 0.5)
            circles[d] = radii * np.exp(1j * angles)
        z[cols] = circles[d]
        rank.append(len(blocks.setdefault(d, [])))
        blocks[d].append(lo)
    blocks = {d: np.array(los)[:, None] + np.arange(d) for d, los in blocks.items()}
    # each root's degree, row in the block of its degree and column there
    deg, rank = np.repeat(degs, degs), np.repeat(rank, degs)
    col = np.arange(starts[-1]) - np.repeat(starts[:-1], degs)

    # ev: the roots each Horner pass evaluates; live: the roots still moving
    ev = live = np.arange(starts[-1])
    sub = coef
    plan = _aberth_plan(live, deg, rank, col, blocks)
    for _ in range(_MAX_ITER):
        pz, bound, dpz = _horner(sub, z[ev])
        # a frozen root that is still evaluated settles again, its z unchanged
        moving = ~(np.abs(pz) <= _EPS_STOP * bound)
        if not moving.all():
            live, pz, dpz = ev[moving], pz[moving], dpz[moving]
            if not live.size:
                break
            plan = _aberth_plan(live, deg, rank, col, blocks)
            # a gather of the columns costs about one pass, so it waits
            # until half the evaluated roots are frozen
            if 2 * live.size <= ev.size:
                ev = live
                sub = coef[top - int(deg[live].max()) :, :, ev]
        # the step w / (1 - w s), w = p / p', in place on the pass's arrays
        s = _aberth_sums(z, plan)
        dpz[dpz == 0] = _TINY
        w = np.divide(pz, dpz, out=pz)
        denom = np.subtract(1.0, np.multiply(w, s, out=s), out=s)
        denom[denom == 0] = _TINY
        z[live] -= np.divide(w, denom, out=w)

    # one polishing Newton pass per root
    pz, _, dpz = _horner(coef, z)
    safe = np.abs(dpz) > 0
    z = np.where(safe, z - pz / np.where(safe, dpz, 1.0), z)
    pz, bound, _ = _horner(coef, z)
    return z, np.abs(pz) / bound


def _by_location(loc):
    """Indices that sort complex locations by (real, imag), as a stable key sort does.

    A NaN compares false both ways, so with one among them only a key sort
    of the same values puts the rest where list.sort puts them.
    """
    if np.isnan(loc).any():
        keys = list(zip(loc.real.tolist(), loc.imag.tolist()))
        return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
    return np.lexsort((loc.imag, loc.real))


def _cluster(z, cluster_radius):
    """Merged, classified roots of one polynomial: the locations,
    multiplicities, labels and diameters of a RootMultiset, sorted by location.

    Whole arrays locate, measure and label the clusters: a one-point
    cluster has a diameter of 0 while finite. Only a merged or non-finite
    cluster takes a diameter of its own.
    """
    order, start, size = _members(_link_ids(z, cluster_radius))
    loc = _centroids(z, order, start, size)
    radius = _modulus(loc)
    diam = np.zeros(size.size)
    band = np.full(size.size, _CIRCLE_BAND)
    for g in np.flatnonzero((size > 1) | ~(radius < np.inf)).tolist():
        pts = z[order[start[g] : start[g] + size[g]]]
        diam[g] = _modulus(pts[:, None] - pts[None, :]).max()
        # a merged cluster locates its root only to about half its own
        # spread, so the circle test must not be sharper than that
        band[g] = max(_CIRCLE_BAND, 0.5 * diam[g])
    label = np.where(radius < 1.0 - band, 0, np.where(radius > 1.0 + band, 2, 1))
    rank = _by_location(loc)
    return loc[rank], size[rank], _LABELS[label[rank]], diam[rank]


def find_roots_batch(polys):
    """find_roots for every polynomial of a sequence, in one iteration.

    Returns a tuple with one RootMultiset per polynomial, each the one
    find_roots gives for that polynomial alone. Errors come in the order
    find_roots raises them: ZeroPolynomial for the first zero member, then
    DomainError for the first member with a NaN or infinite coefficient,
    then NoConvergence for the first member whose roots did not settle
    within the one budget of 200 steps.
    """
    return next(_rungs(polys, (_CLUSTER_RADIUS,)))


def _rungs(polys, radii):
    """find_roots_batch clustered at each radius of radii in turn, from one
    solve: yields a tuple of RootMultiset per radius, raising its errors first."""
    coeffs = [np.array(f.coeffs, dtype=complex) for f in polys]
    if any(np.all(c == 0) for c in coeffs):
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if not all(np.all(np.isfinite(c)) for c in coeffs):
        raise DomainError("polynomial coefficients must be finite")
    members = []
    for c in coeffs:
        mags = np.abs(c)
        keep = np.flatnonzero(mags > _ZERO_REL * mags.max())
        first = _trimmed(mags, int(keep[0]))
        last = len(c) - 1 - _trimmed(mags[::-1], len(c) - 1 - int(keep[-1]))
        members.append((first, last, c[first : last + 1]))

    monics = [core / core[-1] for _, _, core in members if len(core) > 1]
    z, rel = _solve(monics) if monics else (np.empty(0, dtype=complex), None)
    ends = np.cumsum([0] + [len(core) - 1 for _, _, core in members]).tolist()
    for lo, hi in zip(ends, ends[1:]):
        # a NaN residual (an iterate that overflowed) fails the test too
        if hi > lo and not (rel[lo:hi].max() <= _ROOT_TOL):
            raise NoConvergence(
                "simultaneous iteration did not settle within %d steps" % _MAX_ITER,
                residual=float(rel[lo:hi].max()),
            )
    for radius in radii:
        yield tuple(
            RootMultiset(
                *_cluster(z[lo:hi], radius),
                origin_mult=origin,
                degree=deg,
                leading_coeff=complex(core[-1]),
            )
            for (origin, deg, core), lo, hi in zip(members, ends, ends[1:])
        )


def find_roots(f):
    """All roots of the nonzero CoeffPoly f with multiplicities, classified
    against the unit circle.

    The settings are fixed: the iteration starts from the perturbed circle
    seeded by _SEED (12345), a root is labelled on_circle within _CIRCLE_BAND
    (1e-9) of the circle, and each root must reach a relative residual of
    _ROOT_TOL (1e-8) within 200 simultaneous-iteration steps, or
    NoConvergence is raised. Approximations a, b with |a - b| <=
    _CLUSTER_RADIUS * (1 + (|a| + |b|) / 2), and chains of them, merge into
    one root of higher multiplicity.
    """
    return find_roots_batch((f,))[0]


def conj_reciprocal(alpha):
    """Reflection of alpha across the unit circle, 1 / conj(alpha)."""
    alpha = complex(alpha)
    if alpha == 0:
        raise ZeroArgument(_NO_RECIPROCAL)
    return 1.0 / np.conj(alpha)


@dataclass(frozen=True)
class OrbitTable:
    """The reflection-orbit table of a polynomial's roots.

    orbits holds (inner, outer, k_inner, k_outer) per reflection orbit,
    sorted by inner: inner lies strictly inside the disk, outer is its
    reflection, and either multiplicity may be zero when only one side is
    a root. circle holds (location, k) per circle root, sorted by
    location. origin is the origin multiplicity, degree the polynomial's
    degree and leading its leading coefficient.
    """

    orbits: tuple
    circle: tuple
    origin: int
    degree: int
    leading: complex

    def halved(self):
        """The table of the monic all-inside member x of a lift q.

        An orbit of q holds each root of x twice and a circle root of x
        doubles its multiplicity, so orbit (inner, outer, k, k) becomes
        (inner, outer, k, 0) and circle root (location, 2k) becomes
        (location, k). x keeps q's origin multiplicity, and its leading
        coefficient is 1: every class row is scaled to the measurement's
        energy anyway. An orbit with unequal sides, and then a circle root
        of odd multiplicity, raises AsymmetricSpectrum: q is not a lift.
        """
        for inner, _, k_inner, k_outer in self.orbits:
            if k_inner != k_outer:
                raise AsymmetricSpectrum(
                    "orbit at %s has multiplicities %d inside vs %d outside"
                    % (inner, k_inner, k_outer)
                )
        for location, k in self.circle:
            if k % 2:
                raise AsymmetricSpectrum(
                    "on-circle root at %s has odd multiplicity %d" % (location, k)
                )
        orbits = tuple((inner, outer, k, 0) for inner, outer, k, _ in self.orbits)
        circle = tuple((location, k // 2) for location, k in self.circle)
        budget = sum(k for _, _, k, _ in orbits) + sum(k for _, k in circle)
        return OrbitTable(orbits, circle, self.origin, self.origin + budget, 1.0)


def _reflect(points):
    """conj_reciprocal of each entry of a complex array."""
    if (points == 0).any():
        raise ZeroArgument(_NO_RECIPROCAL)
    return 1.0 / np.conj(points)


def _orbit_key(locations):
    """The canonical inside-disk representative of each location's reflection orbit."""
    key = np.array(locations, dtype=complex)
    far = ~(_modulus(key) < 1.0)
    key[far] = _reflect(key[far])
    return key


def _orbit_tables(multisets, circle_entries):
    """One OrbitTable per multiset, aligned entry for entry.

    Off-circle roots, of any of the multisets, whose orbit keys group
    under _MATCH_TOL form one orbit; orbits are sorted by inner. The roots
    of every multiset are stacked into one set of arrays, with the index
    of each root's multiset as its owner: one bincount counts each (orbit,
    multiset, side), and a side is the centroid of its roots. A side with
    no root is the reflection of the other. circle_entries(loc, mult,
    owner) of the circle roots gives (location, one multiplicity per
    multiset) per circle entry.
    """
    loc, mult, label = (np.concatenate([getattr(r, name) for r in multisets])
                        for name in ("locations", "multiplicities", "labels"))
    owner = np.repeat(np.arange(len(multisets)), [r.locations.size for r in multisets])
    on = label == "on_circle"
    circle = circle_entries(loc[on], mult[on], owner[on])
    off = ~on
    loc, mult, owner, side = loc[off], mult[off], owner[off], label[off] != "inside"
    ids = _link_ids(_orbit_key(loc), _MATCH_TOL)
    count = int(ids.max(initial=-1)) + 1
    counts = np.bincount((ids * len(multisets) + owner) * 2 + side, weights=mult,
                         minlength=count * len(multisets) * 2)
    counts = counts.astype(np.intp).reshape(count, len(multisets), 2)

    order, start, size = _members(ids * 2 + side, 2 * count)
    inner, outer = _centroids(loc, order, start, size).reshape(count, 2).T
    has_inner, has_outer = size.reshape(count, 2).T > 0
    inner[~has_inner] = _reflect(outer[~has_inner])
    outer[~has_outer] = _reflect(inner[~has_outer])
    rank = _by_location(inner)
    orbits = list(zip(inner[rank].tolist(), outer[rank].tolist(), counts[rank].tolist()))
    return tuple(
        OrbitTable(
            orbits=tuple((inner, outer, *c[k]) for inner, outer, c in orbits),
            circle=tuple((location, mults[k]) for location, *mults in circle),
            origin=r.origin_mult,
            degree=r.degree,
            leading=r.leading_coeff,
        )
        for k, r in enumerate(multisets)
    )


def pair_reciprocal(r):
    """The OrbitTable of one root multiset.

    Roots join one orbit when their inside-disk representatives group by
    the cluster rule of find_roots at a fixed radius of 1e-6; each
    on-circle root is one circle entry.
    """
    return _orbit_tables((r,), lambda loc, mult, _: list(zip(loc.tolist(), mult.tolist())))[0]


def _matched_circle(loc, mult, owner):
    """(location, k_f, k_g) per group of the circle roots of two polynomials.

    The roots group under _MATCH_TOL, each entry at the centroid of its
    group and sorted by location; one bincount sums each (group, owner)
    multiplicity.
    """
    if not loc.size:  # most pairs have no circle root; the sweep would cost ~20 numpy calls
        return []
    ids = _link_ids(loc, _MATCH_TOL)
    count = int(ids.max()) + 1
    mults = np.bincount(ids * 2 + owner, weights=mult, minlength=2 * count)
    mults = mults.astype(np.intp).reshape(count, 2)
    location = _centroids(loc, *_members(ids, count))
    rank = _by_location(location)
    return list(zip(location[rank].tolist(), *mults[rank].T.tolist()))


def joint_orbits(rf, rg):
    """The OrbitTables of two root multisets, aligned entry for entry.

    Orbits are matched as in pair_reciprocal over the union of the roots,
    and on-circle roots by their locations under the same rule, so an
    entry's multiplicity is 0 in the table of a polynomial that lacks it.
    The polynomials themselves are never compared coefficient-wise here.
    """
    return _orbit_tables((rf, rg), _matched_circle)
