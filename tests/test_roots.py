"""Simultaneous root finding, clustering, and reciprocal pairing."""

import struct

import numpy as np
import pytest
from hypothesis import given

from sldlab import (
    CoeffPoly,
    TrigPoly,
    autocorr_lift,
    autocorrelation,
    conj_reciprocal,
    errors,
    find_roots,
    find_roots_batch,
    joint_orbits,
    lift,
    pair_reciprocal,
    reconstruct,
)
from sldlab import roots as roots_module
from sldlab.roots import RootMultiset, _centroid, _groups, _orbit_key, _sweep

from conftest import poly_from_roots, separated_roots
from oracles import (
    Unsettled,
    equiv_battery,
    find_roots_loop,
    orbit_groups_loop,
    union_find_groups,
)

BAD_TOLERANCES = (float("nan"), float("inf"), -1e-6)


def sorted_locs(r):
    return sorted((root.location for root in r.roots), key=lambda z: (z.real, z.imag))


def test_known_cubic():
    f = CoeffPoly(coeffs=poly_from_roots([2.0, 3.0, 0.5], lead=4.0), n=3)
    r = find_roots(f)
    locs = sorted_locs(r)
    assert np.allclose(locs, [0.5, 2.0, 3.0], atol=1e-10)
    assert r.leading_coeff == pytest.approx(4.0)
    assert r.origin_mult == 0
    labels = sorted(root.label for root in r.roots)
    assert labels == ["inside", "outside", "outside"]


def test_origin_roots_stripped_structurally():
    f = CoeffPoly(coeffs=[0, 0, -2, 1], n=3)  # z^2 (z - 2)
    r = find_roots(f)
    assert r.origin_mult == 2
    assert len(r.roots) == 1
    assert r.roots[0].location == pytest.approx(2.0)


def test_double_root_clusters():
    f = CoeffPoly(coeffs=poly_from_roots([2.0, 2.0, -1.0]), n=3)
    r = find_roots(f)
    mults = sorted(root.multiplicity for root in r.roots)
    assert mults == [1, 2]
    double = max(r.roots, key=lambda root: root.multiplicity)
    assert abs(double.location - 2.0) < 1e-6


def test_circle_quadruple_in_lag_lift():
    # circle root of multiplicity 2 in the signal becomes a fourth-order
    # zero of the lag lift; the cluster radius has to cover the eps^(1/4)
    # splitting ring
    p = TrigPoly(m=1, coeffs=np.convolve([-1, 1], [-1, 1]))
    Q = autocorr_lift(autocorrelation(p))
    r = find_roots(Q, cluster_radius=1e-3)
    assert len(r.roots) == 1
    assert r.roots[0].multiplicity == 4
    assert r.roots[0].label == "on_circle"
    assert abs(r.roots[0].location - 1.0) < 1e-6
    assert r.roots[0].diameter > 0


def test_circle_label_band():
    f = CoeffPoly(coeffs=poly_from_roots([1.0 + 5e-10]), n=1)
    assert find_roots(f).roots[0].label == "on_circle"
    g = CoeffPoly(coeffs=poly_from_roots([1.0 + 1e-6]), n=1)
    assert find_roots(g).roots[0].label == "outside"


def test_reconstruct_roundtrip():
    f = CoeffPoly(coeffs=poly_from_roots([0.4j, -2.0, 1.5 + 1.5j], lead=2.0), n=3)
    back = reconstruct(find_roots(f))
    assert np.abs(back.coeffs - f.coeffs).max() <= 1e-8 * np.abs(f.coeffs).max()


@given(separated_roots(min_count=1, max_count=5))
def test_random_factored_polys(roots):
    f = CoeffPoly(coeffs=poly_from_roots(roots), n=len(roots))
    r = find_roots(f)
    assert len(r.roots) == len(roots)
    got = sorted_locs(r)
    want = sorted(roots, key=lambda z: (z.real, z.imag))
    assert np.abs(np.array(got) - np.array(want)).max() <= 1e-7


@given(separated_roots(min_count=1, max_count=4))
def test_reconstruct_property(roots):
    f = CoeffPoly(coeffs=poly_from_roots(roots, lead=1.7), n=len(roots))
    back = reconstruct(find_roots(f))
    assert np.abs(back.coeffs - f.coeffs).max() <= 1e-7 * np.abs(f.coeffs).max()


def test_no_convergence_is_reported():
    f = CoeffPoly(coeffs=poly_from_roots([0.5, 2.0, 0.3j, -1.8]), n=4)
    with pytest.raises(errors.NoConvergence) as info:
        find_roots(f, max_iter=1)
    assert info.value.residual is not None


def test_degenerate_inputs():
    with pytest.raises(errors.ZeroPolynomial):
        find_roots(CoeffPoly(coeffs=[0, 0, 0], n=2))
    with pytest.raises(errors.DomainError):
        find_roots(CoeffPoly(coeffs=[1, 1], n=1), tol=0.5)
    r = find_roots(CoeffPoly(coeffs=[3.0], n=0))
    assert r.degree == 0 and not r.roots and r.leading_coeff == 3.0


def test_find_roots_rejects_negative_seed():
    quadratic = CoeffPoly(coeffs=poly_from_roots([0.5, 2.0]), n=2)
    for f in (quadratic, CoeffPoly(coeffs=[3.0], n=0)):
        with pytest.raises(errors.DomainError, match="seed must be >= 0"):
            find_roots(f, seed=-1)
    assert find_roots(quadratic, seed=0).degree == 2


def test_conj_reciprocal():
    assert conj_reciprocal(2.0) == pytest.approx(0.5)
    assert conj_reciprocal(2j) == pytest.approx(0.5j)
    a = 0.3 - 0.4j
    assert conj_reciprocal(conj_reciprocal(a)) == pytest.approx(a)
    with pytest.raises(errors.ZeroArgument):
        conj_reciprocal(0.0)


def test_pair_reciprocal_balanced():
    p = TrigPoly(m=1, coeffs=[6, -5, 1])
    Q = autocorr_lift(autocorrelation(p))
    orbits, on_circle, origin = pair_reciprocal(find_roots(Q))
    assert origin == 0  # full-support signal, no vanishing end lags
    assert not on_circle
    assert len(orbits) == 2
    for orb in orbits:
        assert orb.mult_inner == orb.mult_outer == 1
        assert orb.inner * np.conj(orb.outer) == pytest.approx(1.0, abs=1e-7)
        assert abs(orb.inner) < 1.0 < abs(orb.outer)


def test_pair_reciprocal_rejects_unbalanced():
    f = CoeffPoly(coeffs=poly_from_roots([2.0]), n=1)
    with pytest.raises(errors.AsymmetricSpectrum):
        pair_reciprocal(find_roots(f), assert_symmetric=True)
    g = CoeffPoly(coeffs=poly_from_roots([1.0]), n=1)  # circle root, odd mult
    with pytest.raises(errors.AsymmetricSpectrum):
        pair_reciprocal(find_roots(g), assert_symmetric=True)


def test_single_sided_orbits_allowed_when_lax():
    f = CoeffPoly(coeffs=poly_from_roots([2.0, 0.25]), n=2)
    orbits, on_circle, origin = pair_reciprocal(find_roots(f))
    assert len(orbits) == 2
    assert {(o.mult_inner, o.mult_outer) for o in orbits} == {(0, 1), (1, 0)}


def test_joint_orbits_alignment():
    f = CoeffPoly(coeffs=poly_from_roots([2.0, 0.4j]), n=2)
    g = CoeffPoly(coeffs=poly_from_roots([0.5, 0.4j]), n=2)
    orbits, circle_pairs = joint_orbits(find_roots(f), find_roots(g))
    assert not circle_pairs
    assert len(orbits) == 2
    by_inner = {round(abs(o.inner), 6): o for o in orbits}
    flip_orbit = by_inner[0.5]
    assert (flip_orbit.f_inner, flip_orbit.f_outer) == (0, 1)
    assert (flip_orbit.g_inner, flip_orbit.g_outer) == (1, 0)
    assert flip_orbit.f_total == flip_orbit.g_total == 1


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_find_roots_rejects_bad_cluster_radius(bad):
    for f in (
        CoeffPoly(coeffs=poly_from_roots([2.0, 2.0, -1.0]), n=3),
        CoeffPoly(coeffs=[0, 3.0], n=1),  # no root off the origin: nothing to cluster
    ):
        with pytest.raises(errors.DomainError, match="tolerance"):
            find_roots(f, cluster_radius=bad)


def _balanced_pair_roots():
    return find_roots(autocorr_lift(autocorrelation(TrigPoly(m=1, coeffs=[6, -5, 1]))))


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_pair_reciprocal_rejects_bad_match_tol(bad):
    with pytest.raises(errors.DomainError, match="tolerance"):
        pair_reciprocal(_balanced_pair_roots(), match_tol=bad)


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_joint_orbits_rejects_bad_match_tol(bad):
    r = _balanced_pair_roots()
    with pytest.raises(errors.DomainError, match="tolerance"):
        joint_orbits(r, r, match_tol=bad)


def _chained(a, b, tol):
    return abs(a - b) <= tol * (1.0 + 0.5 * (abs(a) + abs(b)))


def _edge_offsets(a, u, tol):
    """Adjacent floats d_in < d_out: a + d_in u is chained to a, a + d_out u is not.

    Bisection on the bit patterns of nonnegative doubles, whose order is
    the order of the values.
    """
    lo = np.float64(0.0).view(np.int64)
    hi = np.float64(4.0 * tol * (1.0 + abs(a))).view(np.int64)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _chained(a, a + float(np.int64(mid).view(np.float64)) * u, tol):
            lo = mid
        else:
            hi = mid
    return float(np.int64(lo).view(np.float64)), float(np.int64(hi).view(np.float64))


def _exact_edge_pair(center, u, tol):
    """center -+ (x/2) u with |a - b| == tol * (1 + (|a| + |b|) / 2) exactly, or None."""
    x = tol
    for _ in range(50):
        a, b = center - 0.5 * x * u, center + 0.5 * x * u
        gap, bound = abs(a - b), tol * (1.0 + 0.5 * (abs(a) + abs(b)))
        if gap == bound:
            return a, b
        x *= bound / gap
    return None


def _point_sets(tol, rng):
    yield []
    yield [complex(rng.normal(), rng.normal())]
    # transitive chains: neighbours are chained, points two apart are not
    for _ in range(4):
        start = complex(*rng.normal(size=2))
        u = np.exp(2j * np.pi * rng.random())
        chain = [start]
        for _ in range(6):
            chain.append(chain[-1] + 0.7 * tol * (1.0 + abs(chain[-1])) * u)
        assert not _chained(chain[0], chain[2], tol)
        others = [complex(*rng.normal(size=2)) for _ in range(5)]
        mixed = chain + others
        yield [mixed[i] for i in rng.permutation(len(mixed))]
    # pairs exactly at the tolerance edge
    exact = 0
    for _ in range(6):
        for center, u in ((complex(rng.normal()), 1j), (0j, np.exp(2j * np.pi * rng.random()))):
            pair = _exact_edge_pair(center, u, tol)
            if pair is not None:
                exact += 1
                yield list(pair)
                yield [pair[1], complex(*rng.normal(size=2)), pair[0]]
    assert exact >= 6
    # pairs one float inside the edge and one float beyond it
    for _ in range(6):
        a = complex(*(3.0 * rng.normal(size=2)))
        u = np.exp(2j * np.pi * rng.random())
        d_in, d_out = _edge_offsets(a, u, tol)
        assert _chained(a, a + d_in * u, tol) and not _chained(a, a + d_out * u, tol)
        yield [a, a + d_in * u]
        yield [a + d_out * u, a]
        yield [a + d_in * u, complex(*rng.normal(size=2)), a, a + d_out * u]
    # jittered clusters with exact duplicates
    for _ in range(8):
        centers = [complex(*(2.0 * rng.normal(size=2))) for _ in range(4)]
        pts = []
        for c in centers:
            for _ in range(int(rng.integers(1, 5))):
                step = 1.5 * tol * (1.0 + abs(c)) * rng.random()
                pts.append(c + step * np.exp(2j * np.pi * rng.random()))
        pts += pts[:2]
        yield [pts[i] for i in rng.permutation(len(pts))]
    # orbit keys of the squared-magnitude lift of roots squeezed to 0.999
    for _ in range(4):
        angles = np.sort(2 * np.pi * rng.random(4))
        zs = 0.999 * np.exp(1j * angles)
        p = TrigPoly(m=2, coeffs=poly_from_roots(zs))
        r = find_roots(autocorr_lift(autocorrelation(p)))
        keys = [_orbit_key(root.location) for root in r.roots
                if root.label != "on_circle"]
        assert len(keys) == 8
        yield keys


@pytest.mark.parametrize("tol", [1e-6, 1e-4, 5e-3])
def test_groups_match_union_find(tol):
    rng = np.random.default_rng(20261018)
    sizes = set()
    for pts in _point_sets(tol, rng):
        got = [g.tolist() for g in _groups(pts, tol)]
        want = union_find_groups(pts, tol)
        assert got == want, pts
        sizes.update(len(g) for g in want)
    assert {1, 2} <= sizes and max(sizes) >= 7


def _crowd(tol, rng):
    """160 points in one small square: ten 12-point chains stepping 0.7 of the
    link distance, exact copies of some chain points and random singles, so
    chains interleave in the sweep's projection."""
    pts = []
    for _ in range(10):
        z = complex(*(0.02 * rng.random(2)))
        u = np.exp(2j * np.pi * rng.random())
        chain = [z]
        for _ in range(11):
            chain.append(chain[-1] + 0.7 * tol * (1.0 + abs(chain[-1])) * u)
        assert not _chained(chain[0], chain[2], tol)
        pts += chain
    pts += [pts[i] for i in rng.integers(0, len(pts), 15)]
    pts += [complex(*(0.02 * rng.random(2))) for _ in range(160 - len(pts))]
    return [pts[i] for i in rng.permutation(len(pts))]


@pytest.mark.parametrize("tol", [1e-4, 5e-4])
def test_groups_of_a_crowd_match_union_find(tol):
    pts = _crowd(tol, np.random.default_rng(1016))
    got = [g.tolist() for g in _groups(pts, tol)]
    assert got == union_find_groups(pts, tol)
    assert len(pts) == 160 and max(map(len, got)) >= 12


def test_groups_of_no_points():
    assert _groups([], 1e-6) == []
    assert _sweep(np.empty((0, 1), dtype=complex), 1.0, None).tolist() == []
    # every root on the circle leaves no orbit key to group
    r = find_roots(CoeffPoly(coeffs=poly_from_roots([1j, -1j, -1.0]), n=3))
    assert pair_reciprocal(r)[0] == ()
    assert joint_orbits(r, r)[0] == ()


def test_groups_with_points_that_are_not_finite():
    # a NaN point links with nothing, an infinite one with every finite
    # point, and their reach in the sweep is unbounded; inf - inf is NaN
    inf, nan = float("inf"), float("nan")
    for pts in ([nan, 1.0, complex(nan, 2.0), 1.0], [1.0, 5.0, complex(-inf, inf)],
                [0.5j, inf, 3.0, complex(-inf, inf), complex(inf, nan), nan, 3.0]):
        for tol in (0.0, 1e-6):
            with np.errstate(invalid="ignore"):
                got = [g.tolist() for g in _groups(pts, tol)]
            assert got == union_find_groups(pts, tol)


def _multiset(rng):
    inner = [(0.2 + 0.6 * rng.random()) * np.exp(2j * np.pi * rng.random()) for _ in range(3)]
    zs = [inner[0], conj_reciprocal(inner[0])]  # balanced orbit
    zs += [inner[1]]  # one-sided, inside
    zs += [conj_reciprocal(inner[2])] * 2  # one-sided double root, outside
    zs += [np.exp(2j * np.pi * rng.random())] * int(rng.integers(1, 3))  # circle root
    zs += [0.0] * int(rng.integers(0, 2))
    rng.shuffle(zs)
    return find_roots(CoeffPoly(coeffs=poly_from_roots(zs, lead=1.5), n=len(zs)))


@pytest.mark.parametrize("seed", range(8))
def test_pair_reciprocal_is_joint_orbits_against_nothing(seed):
    r = _multiset(np.random.default_rng(seed))
    empty = RootMultiset(
        roots=(), origin_mult=0, degree=0, leading_coeff=1.0, circle_band=r.circle_band
    )
    orbits, on_circle, origin = pair_reciprocal(r)
    joint, circle_pairs = joint_orbits(r, empty)
    assert [(o.inner, o.outer, o.mult_inner, o.mult_outer) for o in orbits] == [
        (j.inner, j.outer, j.f_inner, j.f_outer) for j in joint
    ]
    assert all(j.g_inner == j.g_outer == 0 for j in joint)
    assert [(c.location, c.multiplicity, 0) for c in on_circle] == list(circle_pairs)
    assert origin == r.origin_mult
    assert {(o.mult_inner, o.mult_outer) for o in orbits} == {(1, 1), (1, 0), (0, 2)}
    assert len(on_circle) == 1


def _bits(z):
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


def _root_bits(roots, origin, degree, leading):
    return ([(_bits(loc), mult, label, struct.pack("<d", diam))
             for loc, mult, label, diam in roots], origin, degree, _bits(leading))


def _multiset_bits(r):
    return _root_bits([(x.location, x.multiplicity, x.label, x.diameter) for x in r.roots],
                      r.origin_mult, r.degree, r.leading_coeff)


def _orbit_bits(orbits):
    return [(_bits(inner), _bits(outer), counts) for inner, outer, counts in orbits]


def _batch_cases():
    """(coefficient vectors, cluster_radius) batches, one family at a time."""
    rng = np.random.default_rng(20261018)
    # related and independent pairs of order 10-40
    for f, g, _ in equiv_battery(seed=5, count=6):
        yield [f, g], 1e-6
    # random lifts of order 1-40 with zeroed end coefficients: origin roots
    # and a dropped degree
    for m in (1, 2, 3, 7, 16, 40):
        f, g = rng.normal(size=(2, 2 * m + 1)) + 1j * rng.normal(size=(2, 2 * m + 1))
        f[: int(rng.integers(1, m + 1))] = 0
        g[-int(rng.integers(1, m + 1)) :] = 0
        yield [f, g], 1e-6
    # double and quadruple roots
    double = poly_from_roots([2.0, 2.0, -1.0, 0.3j])
    quad = np.convolve(poly_from_roots([0.5j] * 4), poly_from_roots([1.0, -1.0]))
    for radius in (1e-4, 1e-3):
        yield [double, quad], radius
        yield [quad, double], radius
    # unequal degrees, both orders, and a member whose core is a constant
    low, high = rng.normal(size=(2, 21)) + 1j * rng.normal(size=(2, 21))
    yield [low[:5], high], 1e-6
    yield [high, low[:5]], 1e-6
    yield [np.array([0, 0, 2.5]), high[:9], np.array([3.0])], 1e-6
    # roots on the axes, where the zero parts carry signs
    axes = poly_from_roots([1j, -1j, -1.0])
    yield [axes, poly_from_roots([-2.0, 0.5j, -0.5j, 1.0])], 1e-6
    yield [axes, axes], 1e-4
    # coefficients spread over twelve decades: some iterates fly out far
    # enough that the bound sum |a_i| |z|^i overflows, and a NaN residual
    # is unsettled in both solvers
    wide = []
    for seed in (161, 242):
        draw = np.random.default_rng(seed)
        parts = draw.normal(size=(2, 41))
        wide.append((parts[0] + 1j * parts[1]) * 10.0 ** draw.uniform(-12, 0, size=41))
    yield wide, 1e-6


BATCH_CASES = list(_batch_cases())


def _outcome(solve):
    """What solve() returns, or the message and residual bits of its error."""
    try:
        return solve()
    except (Unsettled, errors.NoConvergence) as exc:
        return str(exc), struct.pack("<d", exc.residual)


# the wide-range case overflows on purpose, in both solvers
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_batch_matches_one_polynomial_loop_bitwise(case):
    batch, radius = BATCH_CASES[case]
    polys = [CoeffPoly(coeffs=c) for c in batch]
    want = [_outcome(lambda c=c: _root_bits(*find_roots_loop(c, cluster_radius=radius)))
            for c in batch]
    failed = [w for w in want if isinstance(w[0], str)]
    got = _outcome(lambda: [_multiset_bits(r)
                            for r in find_roots_batch(polys, cluster_radius=radius)])
    assert got == (failed[0] if failed else want)
    assert [_outcome(lambda f=f: _multiset_bits(find_roots(f, cluster_radius=radius)))
            for f in polys] == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_cases_cover_the_edge_shapes():
    found, nan_residuals = [], 0
    for batch, radius in BATCH_CASES:
        try:
            found.append(find_roots_batch([CoeffPoly(coeffs=c) for c in batch],
                                          cluster_radius=radius))
        except errors.NoConvergence as exc:
            nan_residuals += np.isnan(exc.residual)
    assert nan_residuals == 1
    rs = [r for batch in found for r in batch]
    assert any(r.origin_mult for r in rs) and any(not r.roots for r in rs)
    assert {2, 4} <= {root.multiplicity for r in rs for root in r.roots}
    assert any(len({r.degree for r in batch}) > 1 for batch in found)
    assert any(root.location.real == 0 or root.location.imag == 0
               for r in rs for root in r.roots)


@pytest.mark.parametrize("seed", range(4))
def test_orbits_match_loop_bitwise(seed):
    rng = np.random.default_rng(seed)
    f, g, _ = equiv_battery(seed=seed + 11, count=1)[0]
    rf, rg = find_roots_batch((CoeffPoly(coeffs=f), CoeffPoly(coeffs=g)))
    rm = _multiset(rng)
    for pair in ((rf, rg), (rm, rf), (rm, rm)):
        joint, circle_pairs = joint_orbits(*pair)
        assert _orbit_bits(
            (o.inner, o.outer, [[o.f_inner, o.f_outer], [o.g_inner, o.g_outer]]) for o in joint
        ) == _orbit_bits(orbit_groups_loop(pair, 1e-6))
        for r in pair:
            orbits, _, _ = pair_reciprocal(r)
            assert _orbit_bits(
                (o.inner, o.outer, [[o.mult_inner, o.mult_outer]]) for o in orbits
            ) == _orbit_bits(orbit_groups_loop((r,), 1e-6))
    # the circle roots of rm, matched against themselves
    assert [(_bits(loc), a, b) for loc, a, b in joint_orbits(rm, rm)[1]] == [
        (_bits(np.mean([c.location] * 2)), c.multiplicity, c.multiplicity)
        for c in rm.by_label("on_circle")
    ]


def test_centroid_is_numpy_mean_bitwise():
    rng = np.random.default_rng(3)
    parts = [0.0, -0.0, 1.5, -2.0, 1e-320, float("inf"), float("nan")]
    points = [complex(a, b) for a in parts for b in parts]
    sets = [[p] for p in points] + [[p, q] for p in points[:12] for q in points]
    sets += [list(rng.normal(size=k) + 1j * rng.normal(size=k)) for k in (3, 9, 130)]
    with np.errstate(invalid="ignore"):
        for pts in sets:
            want = _bits(np.mean(pts))
            assert _bits(_centroid(pts)) == want
            assert _bits(_centroid(np.array(pts))) == want


def test_batch_raises_the_first_unsettled_members_error():
    quartic = CoeffPoly(coeffs=poly_from_roots([0.5, 2.0, 0.3j, -1.8]), n=4)
    cubic = CoeffPoly(coeffs=poly_from_roots([1.5j, -0.4, 3.0]), n=3)
    linear = CoeffPoly(coeffs=poly_from_roots([0.7 - 0.2j]), n=1)

    def error(polys):
        with pytest.raises(errors.NoConvergence) as info:
            find_roots_batch(polys, max_iter=1)
        return str(info.value), info.value.residual

    for bad in (quartic, cubic):
        alone = error([bad])
        with pytest.raises(Unsettled) as info:
            find_roots_loop(bad.coeffs, max_iter=1)
        assert alone == (str(info.value), info.value.residual)
        assert alone[1] > 1e-8
        # the first member that fails decides, whatever comes after it
        assert error([bad, linear]) == alone
        assert error([bad, quartic if bad is cubic else cubic]) == alone
        # a member that settles does not hide the one after it
        assert error([linear, bad]) == alone
    assert error([quartic]) != error([cubic])
    (r,) = find_roots_batch([linear], max_iter=1)
    assert _multiset_bits(r) == _root_bits(*find_roots_loop(linear.coeffs, max_iter=1))


def test_batch_checks_arguments_before_iterating(monkeypatch):
    def no_iteration(*args):
        raise AssertionError("the iteration ran")

    monkeypatch.setattr(roots_module, "_solve", no_iteration)
    good = CoeffPoly(coeffs=poly_from_roots([0.5, 2.0]), n=2)
    zero = CoeffPoly(coeffs=[0, 0, 0], n=2)
    for kw, message in (({"tol": 0.5}, "tol must"), ({"tol": 0.0}, "tol must"),
                        ({"seed": -1}, "seed must"), ({"cluster_radius": float("nan")}, "tolerance")):
        for polys in ([good], [good, zero], [zero, good]):
            with pytest.raises(errors.DomainError, match=message):
                find_roots_batch(polys, **kw)
    nan = CoeffPoly(coeffs=[1.0, float("nan"), 1.0], n=2)
    for polys in ([zero], [good, zero], [zero, good], [nan, zero], [zero, nan]):
        with pytest.raises(errors.ZeroPolynomial):
            find_roots_batch(polys, max_iter=1)
    for polys in ([nan], [good, nan], [nan, good]):
        with pytest.raises(errors.DomainError, match="finite"):
            find_roots_batch(polys)
    assert find_roots_batch([]) == ()
    with pytest.raises(AssertionError, match="iteration ran"):
        find_roots_batch([good])
