"""Simultaneous root finding, clustering, and reciprocal pairing."""

import inspect
import struct

import numpy as np
import pytest
from hypothesis import given

from sldlab import (
    TrigPoly,
    autocorrelation,
    conj_reciprocal,
    errors,
    find_roots,
    find_roots_batch,
    joint_orbits,
    numeric_magnitude_equiv,
    pair_reciprocal,
    struct_magnitude_equiv,
)
import sldlab
from sldlab import cli
from sldlab import roots as roots_module
from sldlab.roots import _centroid, _link_ids, _orbit_key, _row_max, _sweep

from conftest import poly_from_roots, root_multiset, roots_at, separated_roots
from oracles import (
    Unsettled,
    circle_entries_loop,
    cluster_loop,
    equiv_battery,
    find_roots_loop,
    first_ids_loop,
    orbit_groups_loop,
    root_rows,
    union_find_groups,
)


def sorted_locs(r):
    return sorted(r.locations.tolist(), key=lambda z: (z.real, z.imag))


def test_known_cubic():
    f = poly_from_roots([2.0, 3.0, 0.5], lead=4.0)
    r = find_roots(f)
    locs = sorted_locs(r)
    assert np.allclose(locs, [0.5, 2.0, 3.0], atol=1e-10)
    assert r.leading_coeff == pytest.approx(4.0)
    assert r.origin_mult == 0
    labels = sorted(r.labels.tolist())
    assert labels == ["inside", "outside", "outside"]


def test_origin_roots_stripped_structurally():
    f = [0, 0, -2, 1]  # z^2 (z - 2)
    r = find_roots(f)
    assert r.origin_mult == 2
    assert r.locations.tolist() == [pytest.approx(2.0)]


@pytest.mark.parametrize("eps", [2.12235957e-10, 1e-7, 3e-7, 8e-14, 2e-13])
def test_tiny_ends_that_share_a_cluster_are_not_trimmed(eps):
    # the lags of [eps, 1, eps] are eps^2, 2 eps, 1 + 2 eps^2, ...: their
    # ends are below the structural-zero cut, but trimming one level would
    # put one of the two roots at -eps on the origin and move the other
    r = find_roots(autocorrelation(TrigPoly(m=1, coeffs=[eps, 1, eps])).coeffs)
    assert (r.origin_mult, r.degree) == (0, 4)
    assert sorted(r.multiplicities.tolist()) == [2, 2]
    inner = min(r.locations.tolist(), key=abs)
    assert abs(inner + eps) <= 1e-3 * eps


def test_tiny_ends_that_split_off_are_trimmed():
    # 1e-14 + z + z^2 / 2 has a root near -1e-14, far below the next at -2
    r = find_roots([1e-14, 1, 0.5])
    assert (r.origin_mult, r.degree) == (1, 2)
    assert r.locations.tolist() == [pytest.approx(-2.0)]
    # the same at the top end, and exact zeros whatever their neighbours
    r = find_roots([0.5, 1, 1e-14])
    assert (r.origin_mult, r.degree) == (0, 1)
    r = find_roots([0, 1e-9, 1, 0])
    assert (r.origin_mult, r.degree) == (1, 2)


def test_trimmed_ends_match_a_newton_polygon_loop(rng):
    # magnitudes spread over 30 decades, a fifth of them exact zeros
    outcomes = set()
    for _ in range(400):
        mags = 10.0 ** rng.uniform(-30, 0, size=int(rng.integers(3, 10)))
        mags *= rng.random(len(mags)) > 0.2
        if not mags.any():
            continue
        cut = np.flatnonzero(mags > roots_module._ZERO_REL * mags.max())
        for a, k in ((mags, int(cut[0])), (mags[::-1], len(mags) - 1 - int(cut[-1]))):
            got = roots_module._trimmed(a, k)
            assert got == _trimmed_loop(list(a), k)
            outcomes.add("none" if k == 0 else "all" if got == k else "fewer")
    assert outcomes == {"none", "all", "fewer"}


def _trimmed_loop(a, cut):
    """The largest k <= cut whose dropped root sizes stay 1e-3 below the kept ones."""
    for k in range(cut, 0, -1):
        if a[k] == 0:
            continue
        dropped = max((a[j] / a[k]) ** (1 / (k - j)) for j in range(k))
        kept = min(((a[k] / a[j]) ** (1 / (j - k)) for j in range(k + 1, len(a)) if a[j]),
                   default=float("inf"))
        if dropped <= 1e-3 * kept:
            return k
    return 0


def test_double_root_clusters():
    f = poly_from_roots([2.0, 2.0, -1.0])
    r = find_roots(f)
    mults = sorted(r.multiplicities.tolist())
    assert mults == [1, 2]
    double = r.locations[r.multiplicities.argmax()]
    assert abs(double - 2.0) < 1e-6


def test_circle_quadruple_in_lag_lift():
    # circle root of multiplicity 2 in the signal becomes a fourth-order
    # zero of the lag lift; the cluster radius has to cover the eps^(1/4)
    # splitting ring
    p = TrigPoly(m=1, coeffs=np.convolve([-1, 1], [-1, 1]))
    Q = autocorrelation(p).coeffs
    (r,) = roots_at([Q], 1e-3)
    ((location, k, label, diameter),) = root_rows(r)
    assert k == 4
    assert label == "on_circle"
    assert abs(location - 1.0) < 1e-6
    assert diameter > 0


def test_circle_label_band():
    f = poly_from_roots([1.0 + 5e-10])
    assert find_roots(f).labels.tolist() == ["on_circle"]
    g = poly_from_roots([1.0 + 1e-6])
    assert find_roots(g).labels.tolist() == ["outside"]


@pytest.mark.parametrize(
    "root, label",
    (
        (1.0 + 5e-10, "on_circle"),
        (1.0 - 5e-10, "on_circle"),
        (1.0 + 2e-9, "outside"),
        (1.0 - 2e-9, "inside"),
        (np.exp(0.7j) * (1.0 + 5e-10), "on_circle"),
        (-1j * (1.0 - 2e-9), "inside"),
        (complex(0.6, 0.8), "on_circle"),
    ),
    ids=("out-in-band", "in-in-band", "out-past-band", "in-past-band", "rotated-in-band",
         "rotated-past-band", "on-circle"),
)
def test_circle_band_edges(root, label):
    # a simple root among others is labelled by the fixed 1e-9 band alone
    f = poly_from_roots([0.3, root, 3.0 - 1j])
    r = find_roots(f)
    assert r.labels[np.abs(r.locations - root).argmin()] == label


def multiplied_out(r):
    """The found roots, with their multiplicities and origin roots, times leading_coeff."""
    locs = [0.0] * r.origin_mult + np.repeat(r.locations, r.multiplicities).tolist()
    return poly_from_roots(locs, lead=r.leading_coeff)


def test_reconstruct_roundtrip():
    f = poly_from_roots([0.4j, -2.0, 1.5 + 1.5j], lead=2.0)
    back = multiplied_out(find_roots(f))
    assert np.abs(back - f).max() <= 1e-8 * np.abs(f).max()


@given(separated_roots(min_count=1, max_count=5))
def test_random_factored_polys(roots):
    f = poly_from_roots(roots)
    r = find_roots(f)
    assert len(r.locations) == len(roots)
    got = sorted_locs(r)
    want = sorted(roots, key=lambda z: (z.real, z.imag))
    assert np.abs(np.array(got) - np.array(want)).max() <= 1e-7


@given(separated_roots(min_count=1, max_count=4))
def test_reconstruct_property(roots):
    f = poly_from_roots(roots, lead=1.7)
    back = multiplied_out(find_roots(f))
    assert np.abs(back - f).max() <= 1e-7 * np.abs(f).max()


def test_no_convergence_is_reported(monkeypatch):
    monkeypatch.setattr(roots_module, "_MAX_ITER", 1)
    f = poly_from_roots([0.5, 2.0, 0.3j, -1.8])
    with pytest.raises(errors.NoConvergence) as info:
        find_roots(f)
    assert info.value.residual is not None


def test_degenerate_inputs():
    with pytest.raises(errors.ZeroPolynomial):
        find_roots([0, 0, 0])
    with pytest.raises(errors.DomainError, match="finite"):
        find_roots([1, float("nan")])
    r = find_roots([3.0])
    assert r.degree == 0 and not root_rows(r) and r.leading_coeff == 3.0


# the four entry points that take a lift, each called with f as its last
# polynomial next to a good one; a RootMultiset becomes its bits
_GOOD = poly_from_roots([0.5, 2.0 + 1j], lead=2.0)
ENTRY_POINTS = {
    "find_roots": lambda f: _multiset_bits(find_roots(f)),
    "find_roots_batch": lambda f: [_multiset_bits(r) for r in find_roots_batch((_GOOD, f))],
    "struct_magnitude_equiv": lambda f: struct_magnitude_equiv(_GOOD, f),
    "numeric_magnitude_equiv": lambda f: numeric_magnitude_equiv(_GOOD, f),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_take_a_list_a_tuple_or_a_read_only_array(name):
    coeffs = poly_from_roots([0.5, 2.0 + 1j], lead=-3.0)
    frozen = np.array(coeffs)
    frozen.setflags(write=False)
    outcomes = [ENTRY_POINTS[name](f) for f in (coeffs.tolist(), tuple(coeffs.tolist()), frozen)]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if name.endswith("equiv"):
        assert outcomes[0].related and outcomes[0].kappa == pytest.approx(2.0 / 3.0)


# each refused lift with the exception class each entry point raises; a
# NaN gives the root-free lag oracle a NaN residual, an unrelated verdict
REFUSED = [
    ("2-D", [[1, 2], [3, 4]], (errors.DomainError,) * 4),
    ("empty", [], (errors.DomainError,) * 4),
    ("NaN", [1, float("nan"), 1], (errors.DomainError,) * 3 + (None,)),
    ("zeros", [0, 0, 0], (errors.ZeroPolynomial,) * 4),
]


@pytest.mark.parametrize("f, raised", [(f, raised) for _, f, raised in REFUSED],
                         ids=[case for case, _, _ in REFUSED])
def test_entry_points_refuse_what_is_not_a_nonzero_finite_vector(f, raised):
    for (name, call), error in zip(ENTRY_POINTS.items(), raised):
        if error is None:
            verdict = call(f)
            assert not verdict.related and verdict.witness.startswith("lag residual nan"), name
            continue
        with pytest.raises(errors.DomainError) as info:
            call(f)
        assert type(info.value) is error, name


def test_root_multiset_is_read_only_arrays():
    (r,) = roots_at([poly_from_roots([2.0, 2.0, 0.5j, 1.0, 0.0])], 1e-4)
    assert (r.origin_mult, r.degree) == (1, 5)
    arrays = (r.locations, r.multiplicities, r.labels, r.diameters)
    assert [a.dtype.kind for a in arrays] == ["c", "i", "U", "f"]
    assert {len(a) for a in arrays} == {3}
    # sorted by location: 0.5j, 1, then the double root at 2
    assert r.labels.tolist() == ["inside", "on_circle", "outside"]
    assert r.multiplicities.tolist() == [1, 1, 2]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[1]
    with pytest.raises(errors.DomainError, match="multiplicities sum to 4 but degree is 5"):
        root_multiset([(0.5, 1, "inside"), (2.0, 3, "outside")], degree=5)


@pytest.mark.parametrize("name", ["find_roots", "find_roots_batch", "enumerate_classes",
                                  "factor_sld", "struct_magnitude_equiv"])
def test_root_finding_defaults_have_one_home(name):
    # the root-finding settings are module constants that no caller sets
    params = inspect.signature(getattr(sldlab, name)).parameters.values()
    assert all(p.default is inspect.Parameter.empty for p in params)
    # every report records them, so these values are pinned
    settings = (roots_module._ROOT_TOL, roots_module._CIRCLE_BAND, roots_module._SEED)
    assert settings == (1e-8, 1e-9, 12345)
    assert cli._SETTINGS == {"seed": 12345, "tol_circle": 1e-9, "tol_root": 1e-8}


def test_conj_reciprocal():
    assert conj_reciprocal(2.0) == pytest.approx(0.5)
    assert conj_reciprocal(2j) == pytest.approx(0.5j)
    a = 0.3 - 0.4j
    assert conj_reciprocal(conj_reciprocal(a)) == pytest.approx(a)
    with pytest.raises(errors.ZeroArgument):
        conj_reciprocal(0.0)


def test_pair_reciprocal_balanced():
    p = TrigPoly(m=1, coeffs=[6, -5, 1])
    Q = autocorrelation(p).coeffs
    table = pair_reciprocal(find_roots(Q))
    assert table.origin == 0  # full-support signal, no vanishing end lags
    assert not table.circle
    assert len(table.orbits) == 2
    for inner, outer, k_inner, k_outer in table.orbits:
        assert k_inner == k_outer == 1
        assert inner * np.conj(outer) == pytest.approx(1.0, abs=1e-7)
        assert abs(inner) < 1.0 < abs(outer)


def test_halved_is_the_monic_all_inside_member():
    # the lift of 6 - 5z + z^2 (roots 2 and 3) halves to the table of
    # (z - 1/2)(z - 1/3): each orbit keeps one root inside, none outside
    p = TrigPoly(m=1, coeffs=[6, -5, 1])
    table = pair_reciprocal(find_roots(autocorrelation(p).coeffs))
    half = table.halved()
    assert half.orbits == tuple((inner, outer, 1, 0) for inner, outer, _, _ in table.orbits)
    assert [inner for inner, _, _, _ in half.orbits] == pytest.approx([1 / 3, 1 / 2], abs=1e-9)
    assert (half.circle, half.origin, half.degree, half.leading) == ((), 0, 2, 1.0)
    # a double circle root of the lift is a simple one of the member, and
    # origin roots stay: 2m - (degree - origin) is the top origin shift
    q = poly_from_roots([0.0, 1j, 1j, 0.5, 2.0])
    half = pair_reciprocal(find_roots(q)).halved()
    assert [k for _, k in half.circle] == [1]
    assert (half.origin, half.degree) == (1, 3)


def test_pair_reciprocal_rejects_unbalanced():
    f = poly_from_roots([2.0])
    table = pair_reciprocal(find_roots(f))
    with pytest.raises(errors.AsymmetricSpectrum) as caught:
        table.halved()
    inner = table.orbits[0][0]
    assert str(caught.value) == "orbit at %s has multiplicities 0 inside vs 1 outside" % (inner,)
    assert str(caught.value) == "orbit at (0.5+0j) has multiplicities 0 inside vs 1 outside"
    g = poly_from_roots([1.0])  # circle root, odd mult
    table = pair_reciprocal(find_roots(g))
    with pytest.raises(errors.AsymmetricSpectrum) as caught:
        table.halved()
    location = table.circle[0][0]
    assert str(caught.value) == "on-circle root at %s has odd multiplicity 1" % (location,)
    # orbits are checked before circle roots
    both = poly_from_roots([1.0, 2.0])
    with pytest.raises(errors.AsymmetricSpectrum, match="^orbit at "):
        pair_reciprocal(find_roots(both)).halved()


def test_single_sided_orbits_allowed_when_lax():
    f = poly_from_roots([2.0, 0.25])
    table = pair_reciprocal(find_roots(f))
    assert len(table.orbits) == 2
    assert {(k_inner, k_outer) for _, _, k_inner, k_outer in table.orbits} == {(0, 1), (1, 0)}


def test_joint_orbits_alignment():
    f = poly_from_roots([2.0, 0.4j])
    g = poly_from_roots([0.5, 0.4j])
    tf, tg = joint_orbits(find_roots(f), find_roots(g))
    assert not tf.circle and not tg.circle
    assert len(tf.orbits) == len(tg.orbits) == 2
    # entry i of both tables is one orbit
    assert [o[:2] for o in tf.orbits] == [o[:2] for o in tg.orbits]
    by_inner = {round(abs(fo[0]), 6): (fo[2:], go[2:]) for fo, go in zip(tf.orbits, tg.orbits)}
    f_split, g_split = by_inner[0.5]
    assert f_split == (0, 1)
    assert g_split == (1, 0)
    assert sum(f_split) == sum(g_split) == 1


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
        r = find_roots(autocorrelation(p).coeffs)
        keys = _orbit_key(r.locations[r.labels != "on_circle"]).tolist()
        assert len(keys) == 8
        yield keys


def _link_ids_of(points, tol):
    return _link_ids(np.array(points, dtype=complex), tol).tolist()


def _union_find_ids(points, tol):
    """The group id of each point under union_find_groups, numbered by first appearance."""
    ids = [0] * len(points)
    for g, idx in enumerate(union_find_groups(points, tol)):
        for i in idx:
            ids[i] = g
    return ids


@pytest.mark.parametrize("tol", [1e-6, 1e-4, 5e-3])
def test_groups_match_union_find(tol):
    rng = np.random.default_rng(20261018)
    sizes = set()
    for pts in _point_sets(tol, rng):
        assert _link_ids_of(pts, tol) == _union_find_ids(pts, tol), pts
        sizes.update(len(g) for g in union_find_groups(pts, tol))
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
    assert _link_ids_of(pts, tol) == _union_find_ids(pts, tol)
    assert len(pts) == 160 and max(map(len, union_find_groups(pts, tol))) >= 12


@pytest.mark.parametrize("tol", [1e-4, 5e-4])
def test_groups_of_a_permuted_crowd_are_the_permuted_partition(tol):
    # the crowd's exact copies tie in the sweep's projection, so another
    # order of the points sorts them another way round
    pts = _crowd(tol, np.random.default_rng(1016))
    perm = np.random.default_rng(1017).permutation(len(pts))
    moved = [pts[i] for i in perm]
    ids = _link_ids_of(pts, tol)
    want = first_ids_loop([ids[i] for i in perm])[0]
    assert _link_ids_of(moved, tol) == want == _union_find_ids(moved, tol)


def _one_chain_sets(tol, rng):
    """Pairs and 16-point chains whose consecutive points in the sweep's
    order all link, each alone and with one far point that links nothing,
    and chains that hold points with a NaN projection."""
    for n in (2, 16):
        for _ in range(3):
            z = complex(*rng.normal(size=2))
            # a step in the first quadrant keeps the chain in projection order
            u = np.exp(0.5j * np.pi * (0.1 + 0.8 * rng.random()))
            chain = [z]
            for _ in range(n - 1):
                chain.append(chain[-1] + 0.7 * tol * (1.0 + abs(chain[-1])) * u)
            yield chain
            yield chain + [z + 10.0]
            yield [z - 10.0] + chain[::-1]
    # an infinite point has a NaN projection and links with every finite one
    inf = float("inf")
    yield [0.5, 0.5 + 1e-9, complex(-inf, inf)]
    yield [complex(inf, -inf), 2.0, complex(-inf, inf)]
    yield [complex(-inf, inf), 1.0]


@pytest.mark.parametrize("tol", [1e-6, 1e-4])
def test_groups_of_one_chain_match_union_find(tol):
    sizes = []
    for pts in _one_chain_sets(tol, np.random.default_rng(2210)):
        with np.errstate(invalid="ignore"):
            got = _link_ids_of(pts, tol)
        assert got == _union_find_ids(pts, tol), pts
        sizes.append(max(got) + 1)
    assert set(sizes) == {1, 2}
    # rows with NaN projections that all link are one group
    rows = np.array([[np.nan], [1.0], [complex(1.0, np.nan)], [2.0]], dtype=complex)
    ids = _sweep(rows, 1.0, lambda i, j: np.ones(len(i), dtype=bool))
    assert ids.dtype == np.intp and ids.tolist() == [0, 0, 0, 0]


def test_groups_of_no_points():
    assert _link_ids_of([], 1e-6) == []
    assert _sweep(np.empty((0, 1), dtype=complex), 1.0, None).tolist() == []
    # every root on the circle leaves no orbit key to group
    r = find_roots(poly_from_roots([1j, -1j, -1.0]))
    assert pair_reciprocal(r).orbits == ()
    assert [t.orbits for t in joint_orbits(r, r)] == [(), ()]


def test_groups_with_points_that_are_not_finite():
    # a NaN point links with nothing, an infinite one with every finite
    # point, and their reach in the sweep is unbounded; inf - inf is NaN
    inf, nan = float("inf"), float("nan")
    for pts in ([nan, 1.0, complex(nan, 2.0), 1.0], [1.0, 5.0, complex(-inf, inf)],
                [0.5j, inf, 3.0, complex(-inf, inf), complex(inf, nan), nan, 3.0]):
        for tol in (0.0, 1e-6):
            with np.errstate(invalid="ignore"):
                got = _link_ids_of(pts, tol)
            assert got == _union_find_ids(pts, tol)


def _row_max_cases():
    """(name, array) of moduli and masks on both sides of _row_max's shape
    rule (a walk from w * w rows on), with NaN, +-inf, all-False rows, one
    column, strided views and walks over several blocks of rows."""
    rng = np.random.default_rng(20261020)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0])
    for n, w in ((2, 81), (3, 2), (4, 2), (168, 13), (169, 13), (4098, 13), (0, 4), (1, 1), (9, 1),
                 (3 * roots_module._WALK_ROWS + 5, 7)):
        x = np.abs(rng.normal(size=(n, w)))
        flat = x.reshape(-1)
        picked = rng.choice(flat.size, size=flat.size // 6, replace=False)
        flat[picked] = specials[rng.integers(0, len(specials), size=len(picked))]
        yield "%dx%d" % (n, w), x
        yield "%dx%d mask" % (n, w), rng.random((n, w)) < 0.1
    wide = np.abs(rng.normal(size=(600, 26)))
    wide[::7, 3] = np.nan
    wide[5::11] = -np.inf
    yield "every other row and column", wide[::2, ::2]
    yield "transposed", wide.T
    yield "one column of many", wide[:, 5:6]
    yield "strided mask", (wide > 1.0)[1::2, ::3]
    yield "no true anywhere", np.zeros((300, 5), dtype=bool)


ROW_MAX_CASES = dict(_row_max_cases())


@pytest.mark.parametrize("name", list(ROW_MAX_CASES))
def test_row_max_matches_numpy_bitwise(name):
    x = ROW_MAX_CASES[name]
    want = np.argmax(x, axis=1) if x.dtype == bool else x.max(axis=1)
    got = _row_max(x)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_row_max_cases_cover_both_paths():
    walked = [x for x in ROW_MAX_CASES.values() if len(x) >= x.shape[1] ** 2]
    kept = [x for x in ROW_MAX_CASES.values() if len(x) < x.shape[1] ** 2]
    for side in (walked, kept):
        assert {x.dtype.kind for x in side} == {"b", "f"}
    floats = [x for x in walked if x.dtype != bool]
    masks = [x for x in walked if x.dtype == bool]
    assert any(np.isnan(x).any() for x in floats)
    assert any(np.isposinf(x).any() for x in floats)
    assert any(np.isneginf(x).all(axis=1).any() for x in floats)
    assert any((~x.any(axis=1)).any() for x in masks) and any(x.any() for x in masks)
    assert {1} < {x.shape[1] for x in floats} and any(x.shape[1] == 1 for x in masks)
    assert any(not x.flags.c_contiguous for x in floats)
    assert any(not x.flags.c_contiguous for x in masks)
    assert all(any(len(x) > 2 * roots_module._WALK_ROWS for x in side) for side in (floats, masks))


def _multiset(rng):
    inner = [(0.2 + 0.6 * rng.random()) * np.exp(2j * np.pi * rng.random()) for _ in range(3)]
    zs = [inner[0], conj_reciprocal(inner[0])]  # balanced orbit
    zs += [inner[1]]  # one-sided, inside
    zs += [conj_reciprocal(inner[2])] * 2  # one-sided double root, outside
    zs += [np.exp(2j * np.pi * rng.random())] * int(rng.integers(1, 3))  # circle root
    zs += [0.0] * int(rng.integers(0, 2))
    rng.shuffle(zs)
    return find_roots(poly_from_roots(zs, lead=1.5))


@pytest.mark.parametrize("seed", range(8))
def test_pair_reciprocal_is_joint_orbits_against_nothing(seed):
    r = _multiset(np.random.default_rng(seed))
    empty = root_multiset([])
    table = pair_reciprocal(r)
    tf, tg = joint_orbits(r, empty)
    assert table == tf
    assert [o[:2] for o in tg.orbits] == [o[:2] for o in tf.orbits]
    assert all(k_inner == k_outer == 0 for _, _, k_inner, k_outer in tg.orbits)
    assert [(loc, k, 0) for loc, k in table.circle] == [
        (loc, k, gk) for (loc, k), (_, gk) in zip(tf.circle, tg.circle)
    ]
    assert table.origin == r.origin_mult
    assert {(k_inner, k_outer) for _, _, k_inner, k_outer in table.orbits} == {
        (1, 1), (1, 0), (0, 2)}
    assert len(table.circle) == 1


def _bits(z):
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


def _root_bits(roots, origin, degree, leading):
    return ([(_bits(loc), mult, label, struct.pack("<d", diam))
             for loc, mult, label, diam in roots], origin, degree, _bits(leading))


def _multiset_bits(r):
    return _root_bits(root_rows(r), r.origin_mult, r.degree, r.leading_coeff)


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
    # one polynomial with a double root, a triple root and simple roots
    mixed = poly_from_roots([2.0, 2.0, -1.0, 0.3j, 0.3j, 0.3j, 0.5 - 0.5j, -1.5j], lead=1.5)
    for radius in (1e-4, 1e-3):
        yield [mixed], radius


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
    polys = list(batch)
    want = [_outcome(lambda c=c: _root_bits(*find_roots_loop(c, cluster_radius=radius)))
            for c in batch]
    failed = [w for w in want if isinstance(w[0], str)]
    got = _outcome(lambda: [_multiset_bits(r) for r in roots_at(polys, radius)])
    assert got == (failed[0] if failed else want)
    assert [_outcome(lambda f=f: _multiset_bits(roots_at([f], radius)[0]))
            for f in polys] == want
    if radius == roots_module._CLUSTER_RADIUS:
        assert _outcome(lambda: [_multiset_bits(r) for r in find_roots_batch(polys)]) == got
        assert [_outcome(lambda f=f: _multiset_bits(find_roots(f))) for f in polys] == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_cases_cover_the_edge_shapes():
    found, nan_residuals = [], 0
    for batch, radius in BATCH_CASES:
        try:
            found.append(roots_at(list(batch), radius))
        except errors.NoConvergence as exc:
            nan_residuals += np.isnan(exc.residual)
    assert nan_residuals == 1
    rs = [r for batch in found for r in batch]
    assert any(r.origin_mult for r in rs) and any(not root_rows(r) for r in rs)
    assert {2, 4} <= {k for r in rs for k in r.multiplicities.tolist()}
    assert any(len({r.degree for r in batch}) > 1 for batch in found)
    assert any(z.real == 0 or z.imag == 0 for r in rs for z in r.locations.tolist())


@pytest.mark.parametrize("seed", range(4))
def test_orbits_match_loop_bitwise(seed):
    rng = np.random.default_rng(seed)
    f, g, _ = equiv_battery(seed=seed + 11, count=1)[0]
    rf, rg = find_roots_batch((f, g))
    rm = _multiset(rng)
    for pair in ((rf, rg), (rm, rf), (rm, rm)):
        tf, tg = joint_orbits(*pair)
        assert _orbit_bits(
            (inner, outer, [[fi, fo], [gi, go]])
            for (inner, outer, fi, fo), (_, _, gi, go) in zip(tf.orbits, tg.orbits)
        ) == _orbit_bits(orbit_groups_loop(pair, 1e-6))
        assert [o[:2] for o in tg.orbits] == [o[:2] for o in tf.orbits]
        for r in pair:
            assert _orbit_bits(
                (inner, outer, [[k_inner, k_outer]])
                for inner, outer, k_inner, k_outer in pair_reciprocal(r).orbits
            ) == _orbit_bits(orbit_groups_loop((r,), 1e-6))
    # the circle roots of rm, matched against themselves
    tf, tg = joint_orbits(rm, rm)
    assert [(_bits(loc), a, b) for (loc, a), (_, b) in zip(tf.circle, tg.circle)] == [
        (_bits(np.mean([loc] * 2)), k, k)
        for loc, k, label, _ in root_rows(rm) if label == "on_circle"
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


def _typed_root_bits(roots):
    return [(_bits(loc), type(loc), mult, label, struct.pack("<d", diam), type(diam))
            for loc, mult, label, diam in roots]


def _cluster_cases():
    """(root approximations, cluster_radius) in the shapes the array
    clustering branches on."""
    inf, nan = float("inf"), float("nan")
    rng = np.random.default_rng(2031)
    # one polynomial's worth of points: simple roots, a pair and a triple
    base = rng.normal(size=6) + 1j * rng.normal(size=6)
    jitter = 1e-7 * np.exp(2j * np.pi * rng.random(3))
    mixed = np.concatenate([base, base[1:2] + jitter[:1], base[4:5] + jitter[1:]])
    yield mixed[rng.permutation(len(mixed))], 1e-6
    # signed zeros, alone and merged with their unsigned twins
    yield np.array([complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.0),
                    complex(-2.0, -0.0), complex(-2.0, 0.0), complex(-0.0, -3.0)]), 1e-6
    # equal real parts, for the sort, with an exact duplicate
    yield np.array([0.5 + 0.3j, 0.5 - 0.3j, -0.5 + 0.1j, 0.5 - 0.3j, complex(0.5, 0.0),
                    -0.5 - 0.1j, 0.5 + 2.0j]), 1e-6
    # non-finite one-point clusters: a NaN links with nothing, and an
    # infinity alone has no finite point to link with
    yield np.array([complex(nan, 1.0), 0.3 + 0.2j, complex(1.0, nan), 2.0, 0.3 + 0.2j]), 1e-6
    yield np.array([complex(inf, 0.0)]), 1e-6
    yield np.array([complex(0.0, -inf)]), 1e-6
    # points on, inside and outside the edges of the 1e-9 circle band
    ring = np.array([1.0, 1.0 + 1e-9, 1.0 - 2e-9, -1j, complex(0.6, 0.8), 1.0 + 5e-7])
    yield ring, 1e-6
    # the same points at a radius too small to merge any of them
    yield ring, 1e-12
    # merged clusters whose half-spread widens the band: one straddling the
    # circle, and one 3e-9 out that a lone point there would leave outside
    yield np.array([1.0 + 4e-7, 1.0 - 4e-7, complex(1.0, 4e-7), complex(2e-8, 1.0 + 3e-9),
                    complex(-2e-8, 1.0 + 3e-9), -1.0 - 3e-9]), 1e-6


CLUSTER_CASES = list(_cluster_cases())


@pytest.mark.parametrize("case", range(len(CLUSTER_CASES)))
def test_cluster_matches_loop_bitwise(case):
    z, radius = CLUSTER_CASES[case]
    with np.errstate(invalid="ignore", over="ignore"):
        got = list(zip(*(column.tolist() for column in roots_module._cluster(z, radius))))
        want = cluster_loop(z, radius, roots_module._CIRCLE_BAND)
    assert _typed_root_bits(got) == _typed_root_bits(want)


def test_cluster_cases_cover_the_edge_shapes():
    with np.errstate(invalid="ignore", over="ignore"):
        found = [list(zip(*(column.tolist() for column in roots_module._cluster(*case))))
                 for case in CLUSTER_CASES]
    mults = [{k for _, k, _, _ in rs} for rs in found]
    assert any({1, 2, 3} <= m for m in mults)
    # the reduction of a centroid turns a signed zero into +0
    points = np.concatenate([z for z, _ in CLUSTER_CASES])
    assert (np.signbit(points.real) & (points.real == 0)).any()
    assert (np.signbit(points.imag) & (points.imag == 0)).any()
    assert any(np.isnan(loc.real) and k == 1 and diameter != 0
               for rs in found for loc, k, _, diameter in rs)
    assert any(len({loc.real for loc, _, _, _ in rs}) < len(rs) for rs in found)
    assert {"inside", "on_circle", "outside"} <= {label for rs in found for _, _, label, _ in rs}


def _typed_orbit_bits(orbits):
    return [(_bits(inner), type(inner), _bits(outer), type(outer), counts)
            for inner, outer, counts in orbits]


def _orbit_cases():
    """Root multisets, alone and in pairs, in the shapes the array orbit
    matching branches on."""
    nan = float("nan")
    # double roots inside and outside: merged at a cluster radius of 1e-4,
    # and left as two roots of one side at a radius of 0
    q = poly_from_roots([0.4 + 0.2j, 0.4 + 0.2j, conj_reciprocal(0.4 + 0.2j),
                         conj_reciprocal(0.4 + 0.2j), -0.3j, 1.7, 0.6 - 0.1j])
    merged, split = (roots_at([q], radius)[0] for radius in (1e-4, 0.0))
    assert 2 in merged.multiplicities
    assert len(split.locations) == len(merged.locations) + 2
    yield (merged,)
    yield (split,)
    yield merged, split
    yield split, merged
    # one-sided orbits, keys on the circle itself, signed zeros and equal
    # real parts; an outside root at a NaN location is an orbit of its own
    hand = root_multiset([
        (1.0, 1, "inside"), (-1j, 2, "outside"), (complex(0.6, 0.8), 1, "outside"),
        (complex(-0.0, 0.5), 1, "inside"), (complex(-0.0, 2.0), 1, "outside"),
        (complex(0.5, -0.0), 1, "inside"), (complex(-2.0, -0.0), 1, "outside"),
        (0.5 + 0.1j, 1, "inside"), (0.5 - 0.1j, 3, "inside"), (2.0 + 1.0j, 1, "outside"),
        (2.0 - 1.0j, 1, "outside"), (complex(nan, 2.0), 1, "outside"),
    ], origin=2)
    yield (hand,)
    yield hand, merged
    yield merged, hand
    yield hand, hand


ORBIT_CASES = list(_orbit_cases())


@pytest.mark.parametrize("case", range(len(ORBIT_CASES)))
def test_orbit_edge_shapes_match_loop_bitwise(case):
    multisets = ORBIT_CASES[case]
    with np.errstate(invalid="ignore"):
        tables = (pair_reciprocal(*multisets),) if len(multisets) == 1 else joint_orbits(*multisets)
        want = orbit_groups_loop(multisets, 1e-6)
    got = [(inner, outer, [list(t.orbits[i][2:]) for t in tables])
           for i, (inner, outer, _, _) in enumerate(tables[0].orbits)]
    assert _typed_orbit_bits(got) == _typed_orbit_bits(want)
    assert all([o[:2] for o in t.orbits] == [o[:2] for o in tables[0].orbits] for t in tables)


def test_orbit_cases_cover_the_edge_shapes():
    with np.errstate(invalid="ignore"):
        loops = [orbit_groups_loop(multisets, 1e-6) for multisets in ORBIT_CASES]
    # two roots of one multiset on one side of an orbit: the split doubles
    (split,) = ORBIT_CASES[1]
    for label in ("inside", "outside"):
        keys = _orbit_key(split.locations[split.labels == label])
        assert np.bincount(_link_ids(keys, 1e-6)).max() == 2
    counts = [counts for orbits in loops for _, _, counts in orbits]
    assert any(0 in side for c in counts for side in c if sum(side))
    # orbits whose inner side no multiset holds, so it is a reflection
    assert any(not any(inside for inside, _ in c) for c in counts)
    inners = [inner for orbits in loops for inner, _, _ in orbits]
    assert any(np.isnan(inner.real) for inner in inners)
    reals = [inner.real for inner in inners if not np.isnan(inner.real)]
    assert len(set(reals)) < len(reals)
    off = [(loc, label) for multisets in ORBIT_CASES for r in multisets
           for loc, _, label, _ in root_rows(r) if label != "on_circle"]
    assert {label for loc, label in off if abs(loc) == 1.0} == {"inside", "outside"}
    assert any(np.signbit(loc.real) and loc.real == 0 for loc, _ in off)


# a three-point chain along the circle: neighbours 1.5e-6 apart link under
# the rule's 2e-6 at unit modulus, its ends 3e-6 apart do not
_CHAIN = [np.exp(0.7j) * (1.0 + 1.5e-6j * step) for step in range(3)]


def _circle_cases():
    """Pairs of root multisets in the shapes the joint circle matching
    branches on."""
    nan = float("nan")
    chain = _CHAIN
    f = root_multiset([
        (0.5, 1, "inside"), (1j, 2, "on_circle"), (-1.0, 1, "on_circle"),
        (chain[0], 1, "on_circle"), (chain[2], 1, "on_circle"),
        (complex(1.0, -0.0), 1, "on_circle"), (complex(nan, 1.0), 1, "on_circle"),
    ], origin=1)
    # 5e-7 from f's 1j links; 3e-6 from f's -1 does not
    g = root_multiset([
        (complex(5e-7, 1.0), 1, "on_circle"), (complex(-1.0, 3e-6), 2, "on_circle"),
        (chain[1], 1, "on_circle"), (complex(-0.0, -1.0), 1, "on_circle"),
        (complex(1.0, 0.0), 3, "on_circle"), (2.0, 1, "outside"),
    ])
    # no circle root at all
    h = root_multiset([(0.5, 1, "inside"), (2.0, 1, "outside")])
    for pair in ((f, g), (g, f), (f, f), (f, h), (h, g), (h, h)):
        yield pair


CIRCLE_CASES = list(_circle_cases())


def _typed_circle_bits(entries):
    return [(_bits(loc), type(loc), counts) for loc, counts in entries]


@pytest.mark.parametrize("case", range(len(CIRCLE_CASES)))
def test_joint_circle_entries_match_loop_bitwise(case):
    pair = CIRCLE_CASES[case]
    with np.errstate(invalid="ignore"):
        tf, tg = joint_orbits(*pair)
        want = circle_entries_loop(pair, 1e-6)
    got = [(loc, [k, gk]) for (loc, k), (_, gk) in zip(tf.circle, tg.circle)]
    assert _typed_circle_bits(got) == _typed_circle_bits(want)
    assert [_bits(loc) for loc, _ in tg.circle] == [_bits(loc) for loc, _ in tf.circle]


def test_circle_cases_cover_the_edge_shapes():
    with np.errstate(invalid="ignore"):
        loops = [circle_entries_loop(pair, 1e-6) for pair in CIRCLE_CASES]
    counts = [counts for entries in loops for _, counts in entries]
    # entries both multisets share, and entries one of them lacks
    assert any(all(counts) for counts in counts)
    assert any(0 in counts and any(counts) for counts in counts)
    assert any(not entries for entries in loops)
    locations = [loc for entries in loops for loc, _ in entries]
    assert any(np.isnan(loc.real) for loc in locations)
    # the chain is one entry, though its ends lie beyond the rule
    assert union_find_groups(_CHAIN, 1e-6) == [[0, 1, 2]]
    assert union_find_groups(_CHAIN[::2], 1e-6) == [[0], [1]]
    # the locations of the circle roots carry signed zeros
    inputs = [loc for f, g in CIRCLE_CASES for r in (f, g) for loc, _, label, _ in root_rows(r)
              if label == "on_circle"]
    assert any(np.signbit(loc.real) and loc.real == 0 for loc in inputs)
    assert any(np.signbit(loc.imag) and loc.imag == 0 for loc in inputs)


def test_batch_raises_the_first_unsettled_members_error(monkeypatch):
    monkeypatch.setattr(roots_module, "_MAX_ITER", 1)
    quartic = poly_from_roots([0.5, 2.0, 0.3j, -1.8])
    cubic = poly_from_roots([1.5j, -0.4, 3.0])
    linear = poly_from_roots([0.7 - 0.2j])

    def error(polys):
        with pytest.raises(errors.NoConvergence) as info:
            find_roots_batch(polys)
        return str(info.value), info.value.residual

    for bad in (quartic, cubic):
        alone = error([bad])
        with pytest.raises(Unsettled) as info:
            find_roots_loop(bad, max_iter=1)
        assert alone == (str(info.value), info.value.residual)
        assert alone[1] > 1e-8
        # the first member that fails decides, whatever comes after it
        assert error([bad, linear]) == alone
        assert error([bad, quartic if bad is cubic else cubic]) == alone
        # a member that settles does not hide the one after it
        assert error([linear, bad]) == alone
    assert error([quartic]) != error([cubic])
    (r,) = find_roots_batch([linear])
    assert _multiset_bits(r) == _root_bits(*find_roots_loop(linear, max_iter=1))


def test_batch_checks_arguments_before_iterating(monkeypatch):
    def no_iteration(*args):
        raise AssertionError("the iteration ran")

    monkeypatch.setattr(roots_module, "_solve", no_iteration)
    monkeypatch.setattr(roots_module, "_MAX_ITER", 1)
    good = poly_from_roots([0.5, 2.0])
    zero = [0, 0, 0]
    nan = [1.0, float("nan"), 1.0]
    for polys in ([zero], [good, zero], [zero, good], [nan, zero], [zero, nan]):
        with pytest.raises(errors.ZeroPolynomial):
            find_roots_batch(polys)
    for polys in ([nan], [good, nan], [nan, good]):
        with pytest.raises(errors.DomainError, match="finite"):
            find_roots_batch(polys)
    assert find_roots_batch([]) == ()
    with pytest.raises(AssertionError, match="iteration ran"):
        find_roots_batch([good])
