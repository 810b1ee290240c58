"""The auxiliary DC rotation and the mutual-information experiments."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sldlab import ambiguity, capacity, roots, signals
from sldlab import (
    Constellation,
    TrigPoly,
    autocorrelation,
    bundled_constellation,
    entropy_bits,
    enumerate_classes,
    errors,
    gap_experiment,
    single_class_constellation,
)
from sldlab.capacity import (
    _deterministic_roots,
    _first_ids,
    _groups,
    _rotation_angles,
    _signal_from_roots,
    _uniform,
    _z_rows,
)

from conftest import trig_polys
from oracles import (
    entropy_loop,
    first_duplicate_scan,
    first_ids_loop,
    intensity_series,
    merge_columns_loop,
    pairwise_groups,
    rotate_dc_loop,
    sld_keys_loop,
    z_keys_loop,
)


def _landed(w, turn, m):
    """Distance of the argument of w turned by turn from the nearest multiple of 2 pi/m."""
    landed = np.angle(w * np.exp(1j * turn)) / (2 * np.pi / m)
    return np.abs(landed - np.round(landed)) * (2 * np.pi / m)


def test_grid_levels():
    # a dense sweep of DC arguments lands on exactly the m multiples of 2 pi/m
    theta = np.linspace(-np.pi, np.pi, 4001)
    w = np.exp(1j * theta)
    for m in (1, 2, 4, 7):
        landed = np.angle(w * np.exp(1j * _rotation_angles(w, m))) / (2 * np.pi / m)
        levels = np.round(landed).astype(int) % m
        assert sorted(set(levels.tolist())) == list(range(m))
        assert np.abs(landed - np.round(landed)).max() < 1e-12


def test_quantize_examples():
    # where the DC argument lands on the grid
    def landed(w, m):
        return np.angle(w * np.exp(1j * _rotation_angles(np.array([w]), m)))[0]

    assert landed(1.0, 4) == 0.0
    assert landed(np.exp(0.8j), 4) == pytest.approx(np.pi / 2)
    # ties rotate counterclockwise: -pi/2 on the 2-point grid lands on 0
    assert landed(-1j, 2) == pytest.approx(0.0, abs=1e-15)
    # +pi is folded to -pi first, so it stays on the pi level of a 4-point grid
    assert abs(landed(-1.0, 4)) == np.pi


def test_theta_examples():
    # the turn itself, for DC coefficients of any modulus
    turn = _rotation_angles(np.array([1.0, np.exp(0.8j), 5j, -1j]), 4)
    assert turn[0] == 0.0
    assert turn[1] == pytest.approx(np.pi / 2 - 0.8)
    assert turn[2] == pytest.approx(0.0, abs=1e-15)
    # ties rotate counterclockwise: -pi/2 on the 2-point grid turns to 0
    assert _rotation_angles(np.array([-1j]), 2)[0] == np.pi / 2


def test_quantizer_battery():
    # dense deterministic sweep over orders and angles, +pi among them
    rng = np.random.default_rng(7)
    for m in range(1, 65):
        theta = rng.uniform(-np.pi, np.pi, 10_000)
        theta[:2] = (np.pi, -np.pi)
        w = np.exp(1j * theta)
        turn = _rotation_angles(w, m)
        assert np.all(-np.pi / m < turn) and np.all(turn <= np.pi / m + 1e-12)
        assert _landed(w, turn, m).max() < 1e-12


@given(st.integers(1, 64), st.floats(0.01, 5.0), st.floats(-np.pi, np.pi))
def test_theta_property(m, r, a):
    w = np.array([r * np.exp(1j * a)])
    turn = _rotation_angles(w, m)[0]
    # the rotation codomain the floor formula induces
    assert -np.pi / m < turn <= np.pi / m + 1e-12
    assert _landed(w, turn, m)[0] < 1e-12


@given(trig_polys(), st.integers(1, 16))
def test_quantizer_property(p, m):
    """_z_rows turns a whole row by one unit phase: the DC argument lands on
    the m-point grid, and the lags are those of the row before the turn."""
    row = p.coeffs[None, :]
    z = _z_rows(row, m)[0]
    dc = p.coeffs[p.m]
    if dc == 0:
        assert z.tobytes() == p.coeffs.tobytes()
        return
    unit = z[p.m] / dc
    assert abs(abs(unit) - 1) < 1e-12
    assert np.abs(z - unit * p.coeffs).max() <= 1e-12 * np.abs(p.coeffs).max()
    assert _landed(z[p.m], 0.0, m) < 1e-9
    before = autocorrelation(p).coeffs
    after = autocorrelation(TrigPoly(m=p.m, coeffs=z)).coeffs
    assert np.abs(after - before).max() <= 1e-12 * (1 + np.abs(before).max())


def test_rotate_aligns_dc():
    y = np.array([[0, np.exp(0.8j), 0]])
    z = _z_rows(y, 4)
    assert z[0, 1] == pytest.approx(np.exp(1j * np.pi / 2), abs=1e-12)
    # the measurement is untouched, coefficient for coefficient
    assert np.array_equal(autocorrelation(TrigPoly(m=1, coeffs=y[0])).coeffs,
                          autocorrelation(TrigPoly(m=1, coeffs=z[0])).coeffs)


def test_rotate_preserves_intensity_everywhere():
    y = np.array([0.2j, 1.0, np.exp(1.1j), -0.4, 0.9j])
    z = _z_rows(y[None, :], 8)[0]
    sy = np.array([intensity_series(y, 2, t) for t in np.arange(64) / 64])
    sz = np.array([intensity_series(z, 2, t) for t in np.arange(64) / 64])
    assert np.abs(sy - sz).max() <= 1e-13 * (1 + sy.max())


def test_rotate_zero_dc():
    rows = np.array([[1.0, 0, 0], [0, 0, 1j]])
    assert _z_rows(rows, 4).tobytes() == rows.tobytes()
    assert _z_rows(np.zeros((1, 1), dtype=complex), 1).tobytes() == bytes(16)


def test_rotation_matches_per_signal_scalar_rotation_bitwise():
    rng = np.random.default_rng(99)
    for m in range(7):
        rows = rng.standard_normal((24, 2 * m + 1)) + 1j * rng.standard_normal((24, 2 * m + 1))
        rows[::6, m] = 0  # zero DC passes through
        rows[1::6, m] = -np.abs(rows[1::6, m])  # DC argument +pi folds to -pi
        rows[2::6, m] = np.abs(rows[2::6, m])  # DC argument 0
        for scale in (1e-5, 1.0, 1e5):
            batch = rows * scale
            for grid_m in range(1, 9):
                want = np.stack([rotate_dc_loop(b, grid_m) for b in batch])
                assert _z_rows(batch, grid_m).tobytes() == want.tobytes()


def test_entropy_bits():
    assert entropy_bits([0.5, 0.5]) == 1.0
    assert entropy_bits([1.0]) == 0.0
    assert str(entropy_bits([1.0])) == "0.0"  # never negative zero
    probs = [0.1, 0.2, 0.3, 0.4]
    assert entropy_bits(probs) == pytest.approx(entropy_loop(probs), abs=1e-12)


def test_constellation_copies_only_writable_rows():
    rows = np.array([[0, 1, 1], [1, 1, 0]], dtype=complex)
    c = _uniform(rows, 1.0)
    assert c.coeffs is not rows and not c.coeffs.flags.writeable
    rows[0] = 0
    assert c.coeffs[0].tolist() == [0, 1, 1]
    # a read-only complex array is the caller's to hand over, as the gap
    # builders hand over their points
    assert _uniform(c.coeffs, 1.0).coeffs is c.coeffs
    frozen = np.array([[0, 2, 0], [0, 3, 0]], dtype=float)
    frozen.setflags(write=False)
    assert _uniform(frozen, 1.0).coeffs.dtype == complex


def test_constellation_validation():
    sig = TrigPoly(m=1, coeffs=[0, 1, 1])
    with pytest.raises(errors.DomainError):
        Constellation(coeffs=np.zeros((0, 3)), probs=np.array([]))
    with pytest.raises(errors.DomainError):
        Constellation(coeffs=sig.coeffs[None, :], probs=np.array([0.5]))
    for rows in (sig.coeffs, np.zeros((2, 2)), np.zeros((1, 1, 3))):
        with pytest.raises(errors.DomainError, match="2m\\+1"):
            Constellation(coeffs=rows, probs=np.full(len(rows), 1.0 / len(rows)))
    c = _uniform([sig.coeffs, [1, 1, 0]], sig.period)
    assert c.probs.sum() == pytest.approx(1.0)


def test_noiseless_mi_examples():
    three = _uniform([[0, 1, 1], [1, 1, 0], [0, 2, 0]], 1.0)
    r = gap_experiment(three)
    assert r.i_xy == pytest.approx(np.log2(3), abs=1e-12)
    assert r.i_xs == pytest.approx(entropy_loop([2 / 3, 1 / 3]), abs=1e-12)


def test_noiseless_mi_weights_bins_by_their_probabilities():
    # a reflected pair shares its measurement, two tones do not; on a
    # skewed prior each gives the binary entropy where the uniform one gives 1
    h = entropy_loop([0.11, 0.89])
    pair = Constellation(coeffs=[[0, 1, 1], [1, 1, 0]], probs=[0.11, 0.89])
    r = gap_experiment(pair)
    assert r.i_xy == pytest.approx(h, abs=1e-12)
    assert r.i_xs == 0.0
    assert r.h_z_given_s == pytest.approx(h, abs=1e-12)
    assert r.chain_residual <= 1e-12
    assert r.per_dim_gap == pytest.approx(h / 3, abs=1e-12)
    tones = Constellation(coeffs=[[0, 2, 0], [0, 3, 0]], probs=[0.11, 0.89])
    r = gap_experiment(tones)
    assert (r.i_xy, r.i_xs) == (pytest.approx(h, abs=1e-12),) * 2
    three = Constellation(coeffs=[[0, 1, 1], [1, 1, 0], [0, 2, 0]], probs=[0.2, 0.3, 0.5])
    r = gap_experiment(three)
    assert r.i_xy == pytest.approx(entropy_loop([0.2, 0.3, 0.5]), abs=1e-12)
    assert r.i_xs == pytest.approx(1.0, abs=1e-12)


def test_noiseless_mi_rejects_duplicates():
    sig = TrigPoly(m=1, coeffs=[0, 1, 1])
    twice = _uniform([sig.coeffs, [0, 1, 1]], sig.period)
    with pytest.raises(errors.DuplicateSignals):
        gap_experiment(twice)


def _duplicate_battery(rng):
    """Row arrays with near-copies at 0.5x to 2x the coincidence band.

    The copy moves one real or imaginary part, or every coefficient along
    1 + i, which moves sum(Re + Im) the most a coinciding pair can. The
    first copy is of the highest-energy row, whose band is the widest.
    """
    aligned = "aligned"
    for m in range(4):
        w = 2 * m + 1
        for factor in (0.5, 0.999, 1.0, 1.001, 2.0):
            for part in (1.0, 1j, aligned):
                rows = rng.standard_normal((12, w)) + 1j * rng.standard_normal((12, w))
                rows *= 10.0 ** rng.uniform(-3, 3, (12, 1))
                for copy in range(3):
                    i, j = rng.choice(12, 2, replace=False)
                    if copy == 0:
                        i = int(np.argmax(np.sum(np.abs(rows) ** 2, axis=1)))
                        j = (i + 1 + rng.integers(11)) % 12
                    band = 1e-12 * np.sqrt(np.sum(np.abs(rows[i]) ** 2))
                    rows[j] = rows[i]
                    if part is aligned:
                        rows[j] += factor * band * (1 + 1j) / np.sqrt(2)
                    else:
                        rows[j, rng.integers(w)] += factor * band * part
                yield m, rows
        yield m, np.tile(rows[5], (6, 1))
        rows[[2, 7]] = 0
        yield m, rows
        # a row whose energy overflows, or is NaN, has no band: rejected
        huge = rows.copy()
        huge[0] = 1e200
        yield m, huge
        huge[9, 0] = np.nan
        yield m, huge


def test_duplicate_check_matches_pairwise_scan():
    verdicts = []
    rejected = 0
    for m, rows in _duplicate_battery(np.random.default_rng(2718)):
        with np.errstate(over="ignore", invalid="ignore"):
            wild = np.flatnonzero(~np.isfinite(np.sum(np.abs(rows) ** 2, axis=1)))
        if len(wild):
            with pytest.raises(errors.DomainError) as info, np.errstate(over="ignore"):
                capacity._check_distinct(rows)
            assert not isinstance(info.value, errors.DuplicateSignals)
            assert str(info.value) == (
                "constellation point %d has non-finite energy" % wild[0]
            )
            rejected += 1
            continue
        pair = first_duplicate_scan(rows)
        want = pair and "constellation points %d and %d coincide" % pair
        try:
            capacity._check_distinct(rows)
            got = None
        except errors.DuplicateSignals as exc:
            got = str(exc)
        assert got == want, (m, rows)
        verdicts.append(got is None)
    # the battery holds both verdicts, and an overflow and a NaN case per m
    assert 0 < sum(verdicts) < len(verdicts)
    assert rejected == 8


def _key_cases(orders):
    return [bundled_constellation(m) for m in orders] + [single_class_constellation(3, 6)]


@pytest.mark.parametrize(
    "keys",
    ([b"a"], [b"x"] * 5, [b"c", b"a", b"d", b"b"], [b"b", b"a", b"b", b"c", b"a", b"a", b"d", b"c"]),
    ids=("single", "all-equal", "all-distinct", "interleaved"),
)
def test_first_ids_match_first_appearance_loop(keys):
    want, _ = first_ids_loop(keys)
    void = np.frombuffer(b"".join(keys), dtype=np.dtype((np.void, 1)))
    ints = np.array([ord(k) for k in keys])
    for arr in (void, ints):
        assert _first_ids(arr).tolist() == want


def _integer_rows(rng, n, width):
    """Distinct-or-equal integer rows whose projection sum(Re + Im) is 0.

    Every pair is within reach of every other in the projection, and rows
    that differ lie at least 1 apart.
    """
    rows = rng.integers(-3, 4, (n, width)) + 1j * rng.integers(-3, 4, (n, width))
    rows[:, -1] -= (rows.real + rows.imag).sum(axis=1)
    return rows


def _grouping_cases():
    rng = np.random.default_rng(404)
    # 4,096 rows within 1e-12 of one row, plus eight far rows among them
    dense = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    dense = dense + 1e-12 * (rng.standard_normal((4096, 9)) + 1j * rng.standard_normal((4096, 9)))
    dense[::512] += rng.standard_normal((8, 9))
    yield "dense", dense, 1e-9, 9

    # chains stepping 0.6 r along one direction, so their ends lie far beyond
    # r; a 1.5 r step splits the second chain in two
    direction = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    steps = np.concatenate([np.full(30, 0.6), [50.0], np.full(19, 0.6), [1.5], np.full(20, 0.6)])
    chains = rng.permutation(np.cumsum(steps)[:, None] * direction * 1e-3)
    yield "chains", chains, 1e-3, 3

    # rows of one projection, 1 or more apart, some of them repeated
    flat = _integer_rows(rng, 60, 4)
    flat[40:] = flat[rng.integers(0, 40, 20)]
    yield "equal-projection", flat, 0.5, len(np.unique(flat, axis=0))

    # pairs at a distance between their two radii link by the larger one
    rows = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    radii = 10.0 ** rng.uniform(-3, -1, 40)
    for i in range(0, 40, 4):
        rows[i + 1] = rows[i] + 0.5 * (radii[i] + radii[i + 1]) * np.exp(1j * rng.uniform(0, 6, 3))
    yield "unequal-radii", rows, radii, 30

    # exact copies merge even at radius 0
    copies = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    yield "duplicates", copies[rng.integers(0, 7, 50)], 0.0, 7

    # 1,500 rows of one projection: 1.1M candidate pairs, more than three
    # blocks of 1M // 3 pairs, with repeats spread across the blocks
    yield "blocks", _integer_rows(rng, 1500, 3), 0.5, None

    # nothing links: rows far apart in the projection, and distinct rows of
    # one projection, each within reach of every other
    yield "singletons", rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3)), 1e-6, 30
    distinct = np.unique(_integer_rows(rng, 40, 3), axis=0)
    yield "singletons-in-reach", rng.permutation(distinct), 0.5, len(distinct)

    # one chain stepping 0.6 r: rows two steps apart are within reach of
    # each other but do not link
    one_chain = rng.permutation(np.arange(40)[:, None] * 0.6e-3 * direction)
    yield "one-chain", one_chain, 1e-3, 1


@pytest.mark.parametrize("name,rows,radii,count",
                         [pytest.param(*case, id=case[0]) for case in _grouping_cases()])
def test_groups_match_pairwise_union_find(name, rows, radii, count):
    got = _groups(rows, radii)
    want = pairwise_groups(rows, radii)
    assert got.tolist() == want
    if count is not None:
        assert got.max() + 1 == count
    if name == "unequal-radii":
        # each planted pair is farther apart than its smaller radius
        gap = np.abs(rows[1::4] - rows[::4]).max(axis=1)
        assert np.all(gap > np.minimum(radii[1::4], radii[::4]))
    if name == "blocks":
        assert len(rows) * (len(rows) - 1) // 2 > 3 * (1_000_000 // 3)
        assert 0 < len(rows) - (got.max() + 1)


@pytest.mark.parametrize("name,rows,radii", [
    pytest.param(*case[:3], id=case[0]) for case in _grouping_cases()
] + [
    # a row with a NaN part has a NaN projection; it is compared and links nothing
    pytest.param("nan", np.array([[np.nan, 1.0], [0.0, 1.0], [0.0, 1.0 + 1e-9]]), 1e-6,
                 id="nan"),
])
def test_sweep_links_only_pairs_within_reach(monkeypatch, name, rows, radii):
    rows = np.asarray(rows, dtype=complex)
    parts = rows.view(float)
    proj = parts.sum(axis=1)
    width = rows.shape[1]
    reach = (2 * width * np.max(radii)
             + 8 * width * np.finfo(float).eps * np.abs(parts).sum(axis=1).max())
    seen = []
    sweep = capacity._sweep

    def spy(rows, radius, link):
        def spied(i, j):
            seen.append((i, j))
            return link(i, j)
        return sweep(rows, radius, spied)

    monkeypatch.setattr(capacity, "_sweep", spy)
    got = _groups(rows, radii)
    assert got.tolist() == pairwise_groups(rows, radii)
    assert bool(seen) == (name != "singletons")
    for i, j in seen:
        # written as not > so that a NaN projection passes
        assert not np.any(np.abs(proj[i] - proj[j]) > reach), name


def _entropy_by_bytes_keys(probs, keys):
    return entropy_bits(merge_columns_loop(probs[None, :], keys)[0])


def test_gap_bins_match_bytes_key_grouping_bitwise():
    for c in _key_cases(range(1, 7)):
        s_keys, z_keys = sld_keys_loop(c.coeffs), z_keys_loop(c.coeffs, c.m)
        i_xs = _entropy_by_bytes_keys(c.probs, s_keys)
        h_zs = _entropy_by_bytes_keys(c.probs, [z + s for z, s in zip(z_keys, s_keys)])
        h_z_given_s = h_zs - i_xs
        want = (i_xs, _entropy_by_bytes_keys(c.probs, z_keys), h_z_given_s,
                abs((entropy_bits(c.probs) - i_xs) - h_z_given_s))
        r = gap_experiment(c)
        assert repr((r.i_xs, r.i_xz, r.h_z_given_s, r.chain_residual)) == repr(want), c.m


def test_mi_distinguishes_intensity_scales():
    # tones of different power are different measurements even though
    # both are "flat"; binning must not normalize them into collision
    tones = _uniform([[0, 2, 0], [0, 3, 0]], 1.0)
    r = gap_experiment(tones)
    assert (r.i_xy, r.i_xs) == (1.0, 1.0)


def test_tones_whose_energy_reaches_2_to_1023_keep_their_own_bins():
    # a tone of power 1e308 has a finite c_0; doubled to inf, it would make
    # the bin radius inf and merge every measurement into one bin
    tones = _uniform([[0, dc, 0] for dc in (1e154, 0.5e154)], 1.0)
    r = gap_experiment(tones)
    assert (r.i_xy, r.i_xs) == (1.0, 1.0)


@pytest.mark.parametrize("x", [0.50000001, 0.50000005])
def test_tones_straddling_a_rounding_boundary_share_a_bin(x):
    # the last two tones' lags differ by 2e-11 in both cases; at 0.50000005
    # they lie either side of a 7-decimal rounding boundary
    tones = _uniform([[0, dc, 0] for dc in (1.0, np.sqrt(x - 1e-11), np.sqrt(x + 1e-11))], 1.0)
    r = gap_experiment(tones)
    assert r.i_xy == pytest.approx(np.log2(3), abs=1e-12)
    assert r.i_xs == pytest.approx(entropy_loop([1 / 3, 2 / 3]), abs=1e-12)


def test_gap_bins_take_each_rows_own_radius():
    # the batch radius of the 1e154 point would merge the two small ones
    c = _uniform(np.array([[1, 2, 3], [3, 2, 1], [0, 1e154, 0]], dtype=complex), 1.0)
    r = gap_experiment(c)
    assert r.i_xz == np.log2(3)
    assert r.chain_residual == 0.0


@pytest.mark.xfail(strict=True, reason=(
    "binning artefact: the 1e-7 measurement bins chain distinct measurements "
    "2e-9 apart into one bin, so gap reports per_dim_gap 2.0 against a bound of 1.0"))
def test_distinct_measurements_closer_than_a_bin_keep_their_own_bins():
    # 64 tones whose DC coefficients are 1e-9 apart pass the 1e-12
    # distinctness check, and every measurement is its own
    tones = _uniform([[0, 1 + k * 1e-9, 0] for k in range(64)], 1.0)
    r = gap_experiment(tones)
    assert r.i_xs == 6.0
    assert r.passed


def test_gap_single_class_example():
    c = single_class_constellation(1, 1)
    r = gap_experiment(c)
    assert r.i_xy == pytest.approx(1.0, abs=1e-12)
    assert r.i_xs == pytest.approx(0.0, abs=1e-12)
    assert r.per_dim_gap == pytest.approx(1 / 3, abs=1e-12)
    assert r.passed


@pytest.mark.parametrize("m,q", [(1, 1), (1, 2), (2, 1), (2, 3), (2, 4), (3, 5), (3, 6)])
def test_gap_single_class_family(m, q):
    r = gap_experiment(single_class_constellation(m, q))
    assert r.i_xy == pytest.approx(float(q), abs=1e-12)
    assert r.i_xs == pytest.approx(0.0, abs=1e-12)
    assert r.per_dim_gap == pytest.approx(q / (2 * m + 1), abs=1e-12)
    assert r.chain_residual <= 1e-9
    assert r.passed


def test_gap_bound_values():
    for m, want in [(1, 1.0), (2, 1.2), (3, 1.2264232143887366), (4, 1.2222222222222223)]:
        r = gap_experiment(bundled_constellation(m))
        assert r.bound == pytest.approx(want, abs=1e-12)
        assert r.bound == pytest.approx(1 + np.log2(m) / (2 * m + 1), abs=1e-12)


def test_gap_bundled_chain_identity():
    for m in (1, 2, 3):
        r = gap_experiment(bundled_constellation(m))
        assert r.chain_residual <= 1e-9
        assert 0.0 <= r.i_xs <= r.i_xy
        assert r.passed


def test_gap_bundled_entropy_forms():
    # 2^(2m) signals share one measurement class, two tones are their own
    r = gap_experiment(bundled_constellation(2))
    n = 2**4 + 2
    assert r.i_xy == pytest.approx(np.log2(n), abs=1e-12)
    assert r.i_xs == pytest.approx(
        entropy_loop([2**4 / n, 1 / n, 1 / n]), abs=1e-12
    )


def test_gap_bundled_order_seven():
    r = gap_experiment(bundled_constellation(7))
    n = 4**7 + 2
    assert r.i_xy == pytest.approx(np.log2(n), abs=1e-9)
    assert r.i_xs == pytest.approx(entropy_loop([4**7 / n, 1 / n, 1 / n]), abs=1e-9)
    assert r.chain_residual <= 1e-9
    assert r.passed


def test_gap_report_does_not_depend_on_the_order_of_the_points():
    rng = np.random.default_rng(31)
    for m in range(1, 5):
        c = bundled_constellation(m)
        want = gap_experiment(c)
        got = gap_experiment(_uniform(c.coeffs[rng.permutation(len(c.coeffs))], c.period))
        for name in ("i_xy", "i_xs", "i_xz", "h_z_given_s", "chain_residual", "per_dim_gap"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12), (m, name)
        assert (got.bound, got.passed, got.zero_dc) == (want.bound, want.passed, want.zero_dc), m


def test_gap_rejects_m_zero():
    c = _uniform([[1.0], [2.0]], 1.0)
    with pytest.raises(errors.UnsupportedOrder):
        gap_experiment(c)


def test_duplicate_check_at_order_zero():
    # the m = 0 points are scalars: a sign is no duplicate, an equal value is
    capacity._check_distinct(np.array([[1.0], [-1.0]], dtype=complex))
    with pytest.raises(errors.DuplicateSignals, match="^constellation points 0 and 2 coincide$"):
        capacity._check_distinct(np.array([[1.0], [2.0], [1.0]], dtype=complex))
    # gap_experiment refuses the order before it compares any points
    twice = _uniform(np.array([[1.0], [1.0]], dtype=complex), 1.0)
    with pytest.raises(errors.UnsupportedOrder):
        gap_experiment(twice)


def test_single_class_members_share_measurement():
    c = single_class_constellation(2, 3)
    assert len(c.signals) == 8
    base = autocorrelation(c.signals[0]).coeffs
    for sig in c.signals[1:]:
        assert np.abs(autocorrelation(sig).coeffs - base).max() <= 1e-7 * np.abs(base).max()


def test_single_class_bounds_q():
    with pytest.raises(errors.DomainError):
        single_class_constellation(1, 3)
    with pytest.raises(errors.DomainError):
        single_class_constellation(1, 0)


def _source(m, q, period=1.0):
    """The signal the builders' classes belong to: odd-numbered roots reflected."""
    inside, circle = _deterministic_roots(m, q)
    locs = [1 / np.conj(z) if j % 2 else z for j, z in enumerate(inside)]
    return TrigPoly(m=m, coeffs=_signal_from_roots(m, locs + circle).coeffs, period=period)


def _assert_rows_match(got, want):
    assert got.shape == want.shape
    scale = np.abs(want).max(axis=1)
    assert np.all(np.abs(got - want).max(axis=1) <= 1e-12 * scale)


@pytest.mark.parametrize("period", [1.0, 2.5])
@pytest.mark.parametrize("m", range(1, 8))
def test_bundled_constellation_matches_enumerate_classes(m, period):
    # the class rows do not depend on the period: the period-1 builder's
    # rows are the classes of its source at any period
    c = bundled_constellation(m)
    assert c.period == 1.0
    cs = enumerate_classes(_source(m, 2 * m, period))
    assert cs.autocorr.period == period
    _assert_rows_match(c.coeffs[:-2], cs.coeffs)


@pytest.mark.parametrize("m,q", [(m, q) for m in (1, 2, 3) for q in range(1, 2 * m + 1)])
def test_single_class_constellation_matches_enumerate_classes(m, q):
    c = single_class_constellation(m, q)
    _assert_rows_match(c.coeffs, enumerate_classes(_source(m, q)).coeffs)


def test_constellation_builders_solve_no_roots(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("root solve")

    monkeypatch.setattr(roots, "find_roots_batch", refuse)
    with pytest.raises(AssertionError):
        enumerate_classes(TrigPoly(m=1, coeffs=[6, -5, 1]))
    assert len(bundled_constellation(3).coeffs) == 4**3 + 2
    assert len(single_class_constellation(2, 3).coeffs) == 2**3


def test_gap_sweep_takes_each_class_rows_lags_once(monkeypatch):
    # the builders' gate and gap_experiment's bins read one lag array
    seen = []
    half_lags = signals._half_lags

    def spy(b):
        seen.extend(row.tobytes() for row in b)
        return half_lags(b)

    for module in (signals, ambiguity, capacity):
        monkeypatch.setattr(module, "_half_lags", spy)
    for m in range(1, 7):
        del seen[:]
        c = bundled_constellation(m)
        gap_experiment(c)
        for row in c.coeffs:
            assert seen.count(row.tobytes()) == 1, m


def test_gap_builders_hold_few_copies_of_their_points_at_peak():
    # bundled_constellation(7): 16,386 points of 15 coefficients, 3.9 MB.
    # Its class rows are built 1,024 at a time, and its gate compares the
    # lags with the rows given over to the points, so it peaks at 3.5
    # times the points (4.5 when the whole rows outlived the copy);
    # gap_experiment's bins then peak at 5.3 times
    gap_experiment(bundled_constellation(1))
    tracemalloc.start()
    try:
        c = bundled_constellation(7)
        built = tracemalloc.get_traced_memory()[1]
        report = gap_experiment(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(c.coeffs) == 4**7 + 2 and report.passed
    assert built < 4 * c.coeffs.nbytes, built / c.coeffs.nbytes
    assert peak < 6 * c.coeffs.nbytes, peak / c.coeffs.nbytes


@pytest.mark.parametrize("victim", [0, -1])
def test_builders_gate_their_class_rows(monkeypatch, victim):
    class_rows = capacity._class_rows

    def perturbed(*args):
        rows = class_rows(*args).copy()
        rows[victim] *= 1 + 1e-3
        return rows

    monkeypatch.setattr(capacity, "_class_rows", perturbed)
    for build in (lambda: single_class_constellation(2, 3), lambda: bundled_constellation(2)):
        with pytest.raises(errors.DomainError,
                           match="representative misses the source measurement by"):
            build()


@pytest.mark.parametrize("m", range(1, 7))
def test_gap_report_from_the_builders_lags_matches_a_fresh_constellation(m):
    c = bundled_constellation(m)
    fresh = Constellation(coeffs=c.coeffs, probs=c.probs)
    assert "lags" in vars(c) and "lags" not in vars(fresh)
    got, want = gap_experiment(c), gap_experiment(fresh)
    for name in got.__dataclass_fields__:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


def test_constellation_lags_are_read_only_half_lags():
    for c in (bundled_constellation(3), single_class_constellation(2, 3),
              _uniform([[1, 2j, 0], [0, 0, 3]], 1.0)):
        lags = c.lags
        assert c.lags is lags and not lags.flags.writeable
        assert lags.tobytes() == capacity._half_lags(c.coeffs).tobytes()
        with pytest.raises(ValueError):
            lags[0, 0] = 1.0


def test_rotation_of_rows_without_a_zero_dc_matches_the_masked_path_bitwise():
    # with every DC nonzero, _z_rows turns the whole array; a zero-DC row
    # appended sends the same rows through the masked path
    rng = np.random.default_rng(2026)
    for m in range(7):
        rows = rng.standard_normal((24, 2 * m + 1)) + 1j * rng.standard_normal((24, 2 * m + 1))
        rows[1::6, m] = -np.abs(rows[1::6, m])  # DC argument +pi folds to -pi
        rows[2::6, m] = np.abs(rows[2::6, m])  # DC argument 0
        zero = np.ones((1, 2 * m + 1), dtype=complex)
        zero[0, m] = 0
        for scale in (1e-5, 1.0, 1e5):
            batch = rows * scale
            for grid_m in range(1, 9):
                whole = _z_rows(batch, grid_m)
                masked = _z_rows(np.concatenate([batch, zero]), grid_m)
                assert whole.tobytes() == masked[:-1].tobytes()
                assert masked[-1].tobytes() == zero[0].tobytes()
                want = np.stack([rotate_dc_loop(b, grid_m) for b in batch])
                assert whole.tobytes() == want.tobytes()
