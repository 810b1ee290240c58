"""Phase quantizer, auxiliary rotation, and the mutual-information experiments."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sldlab import (
    Constellation,
    DiscreteNoise,
    PhaseGrid,
    TrigPoly,
    autocorrelation,
    auxiliary_rotate,
    bundled_constellation,
    entropy_bits,
    errors,
    gap_experiment,
    measurement_transform,
    mi_dmc,
    quantize_phase,
    single_class_constellation,
    theta_m,
)
from sldlab.capacity import _first_ids, _groups, _mi_from_joint, _z_rows

from oracles import (
    binary_entropy,
    entropy_loop,
    first_duplicate_scan,
    first_ids_loop,
    merge_columns_loop,
    pairwise_groups,
    round_keys_loop,
    rotate_dc_loop,
    sld_keys_loop,
    z_keys_loop,
)


def test_grid_levels():
    g = PhaseGrid(4)
    assert g.step == pytest.approx(np.pi / 2)
    assert sorted(g.levels) == pytest.approx([-np.pi, -np.pi / 2, 0.0, np.pi / 2])
    assert len(PhaseGrid(7).levels) == 7
    assert all(-np.pi <= lv < np.pi for lv in PhaseGrid(7).levels)
    with pytest.raises(errors.UnsupportedOrder):
        PhaseGrid(0)


def test_quantize_examples():
    g = PhaseGrid(4)
    assert quantize_phase(g, 0.0) == 0.0
    assert quantize_phase(g, 0.8) == pytest.approx(np.pi / 2)
    # boundary ties rotate counterclockwise
    assert quantize_phase(PhaseGrid(2), -np.pi / 2) == 0.0
    with pytest.raises(errors.OutOfRange):
        quantize_phase(g, np.pi)
    with pytest.raises(errors.OutOfRange):
        quantize_phase(g, -4.0)


def test_quantizer_battery():
    # dense deterministic sweep over orders and angles
    rng = np.random.default_rng(7)
    for m in range(1, 65):
        g = PhaseGrid(m)
        theta = rng.uniform(-np.pi, np.pi, 10_000)
        theta[theta >= np.pi] = -np.pi
        got = np.array([quantize_phase(g, t) for t in theta])
        err = np.abs(got - theta)
        err = np.minimum(err, 2 * np.pi - err)  # circular distance
        assert err.max() <= np.pi / m + 1e-12
        lv = np.array(sorted(g.levels))
        assert np.abs(lv[np.searchsorted(lv, got).clip(0, m - 1)] - got).min() >= 0
        for v in np.unique(got):
            assert any(abs(v - l) < 1e-12 for l in g.levels)


@given(st.integers(1, 64), st.floats(-np.pi, np.pi, exclude_max=True))
def test_quantizer_property(m, theta):
    g = PhaseGrid(m)
    q = quantize_phase(g, theta)
    err = abs(q - theta)
    assert min(err, 2 * np.pi - err) <= np.pi / m + 1e-12
    assert any(abs(q - l) < 1e-12 for l in g.levels)


def test_theta_examples():
    g = PhaseGrid(4)
    assert theta_m(g, 1.0) == 0.0
    assert theta_m(g, np.exp(0.8j)) == pytest.approx(np.pi / 2 - 0.8)
    assert theta_m(g, 5j) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(errors.ZeroArgument):
        theta_m(g, 0.0)


@given(st.integers(1, 32), st.floats(0.01, 5.0), st.floats(-np.pi, np.pi, exclude_max=True))
def test_theta_property(m, r, a):
    g = PhaseGrid(m)
    w = r * np.exp(1j * a)
    th = theta_m(g, w)
    # the rotation codomain the floor formula induces
    assert -np.pi / m < th <= np.pi / m + 1e-12
    landed = np.angle(w * np.exp(1j * th))
    if landed >= np.pi - 1e-9:
        landed -= 2 * np.pi
    assert any(abs(landed - l) < 1e-9 for l in g.levels)


def test_rotate_aligns_dc():
    y = TrigPoly(m=1, coeffs=[0, np.exp(0.8j), 0])
    z = auxiliary_rotate(y, grid=PhaseGrid(4))
    assert z.coeffs[1] == pytest.approx(np.exp(1j * np.pi / 2), abs=1e-12)
    # the measurement is untouched, coefficient for coefficient
    assert np.array_equal(autocorrelation(y).coeffs, autocorrelation(z).coeffs)


def test_rotate_preserves_intensity_everywhere():
    y = TrigPoly(m=2, coeffs=[0.2j, 1.0, np.exp(1.1j), -0.4, 0.9j])
    z = auxiliary_rotate(y, grid=PhaseGrid(8))
    t = np.arange(64) / 64
    from sldlab import eval_intensity

    sy = eval_intensity(y, t)
    sz = eval_intensity(z, t)
    assert np.abs(sy - sz).max() <= 1e-13 * (1 + sy.max())


def test_rotate_zero_dc():
    y = TrigPoly(m=1, coeffs=[1.0, 0, 0])
    assert auxiliary_rotate(y) is y
    with pytest.raises(errors.ZeroDC):
        auxiliary_rotate(y, strict=True)
    # m=0 has no default grid, so only a zero DC passes through
    y = TrigPoly(m=0, coeffs=[0j])
    assert auxiliary_rotate(y) is y
    with pytest.raises(errors.UnsupportedOrder):
        auxiliary_rotate(TrigPoly(m=0, coeffs=[1.0]))


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
                grid = PhaseGrid(grid_m)
                want = np.stack([rotate_dc_loop(b, grid_m) for b in batch])
                assert _z_rows(batch, grid).tobytes() == want.tobytes()
                for b, w in zip(batch, want):
                    got = auxiliary_rotate(TrigPoly(m=m, coeffs=b), grid=grid)
                    assert got.coeffs.tobytes() == w.tobytes()


def test_entropy_bits():
    assert entropy_bits([0.5, 0.5]) == 1.0
    assert entropy_bits([1.0]) == 0.0
    assert str(entropy_bits([1.0])) == "0.0"  # never negative zero
    probs = [0.1, 0.2, 0.3, 0.4]
    assert entropy_bits(probs) == pytest.approx(entropy_loop(probs), abs=1e-12)


def test_constellation_validation():
    sig = TrigPoly(m=1, coeffs=[0, 1, 1])
    with pytest.raises(errors.DomainError):
        Constellation(coeffs=np.zeros((0, 3)), probs=np.array([]))
    with pytest.raises(errors.DomainError):
        Constellation(coeffs=sig.coeffs[None, :], probs=np.array([0.5]))
    with pytest.raises(errors.DomainError):
        Constellation.uniform((sig, TrigPoly(m=2, coeffs=[0, 0, 1, 1, 0])))
    for rows in (sig.coeffs, np.zeros((2, 2)), np.zeros((1, 1, 3))):
        with pytest.raises(errors.DomainError, match="2m\\+1"):
            Constellation(coeffs=rows, probs=np.full(len(rows), 1.0 / len(rows)))
    c = Constellation.uniform([sig, TrigPoly(m=1, coeffs=[1, 1, 0])])
    assert c.probs.sum() == pytest.approx(1.0)


def test_noiseless_mi_examples():
    # m = 0 has no gap bound, so the identity channel goes through mi_dmc
    plus_minus = Constellation.uniform(
        [TrigPoly(m=0, coeffs=[1.0]), TrigPoly(m=0, coeffs=[-1.0])]
    )
    assert mi_dmc(plus_minus, DiscreteNoise.zero(0)) == (1.0, 0.0)

    distinct = Constellation.uniform(
        [TrigPoly(m=0, coeffs=[1.0]), TrigPoly(m=0, coeffs=[2.0])]
    )
    assert mi_dmc(distinct, DiscreteNoise.zero(0)) == (1.0, 1.0)

    three = Constellation.uniform(
        [
            TrigPoly(m=1, coeffs=[0, 1, 1]),
            TrigPoly(m=1, coeffs=[1, 1, 0]),
            TrigPoly(m=1, coeffs=[0, 2, 0]),
        ]
    )
    r = gap_experiment(three)
    assert r.i_xy == pytest.approx(np.log2(3), abs=1e-12)
    assert r.i_xs == pytest.approx(entropy_loop([2 / 3, 1 / 3]), abs=1e-12)


def test_noiseless_mi_rejects_duplicates():
    sig = TrigPoly(m=1, coeffs=[0, 1, 1])
    twice = Constellation.uniform([sig, TrigPoly(m=1, coeffs=[0, 1, 1])])
    with pytest.raises(errors.DuplicateSignals):
        gap_experiment(twice)
    with pytest.raises(errors.DuplicateSignals):
        mi_dmc(twice, DiscreteNoise.zero(1))


def _duplicate_battery(rng):
    """Constellations with near-copies at 0.5x to 2x the coincidence band.

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
        c = Constellation.uniform([TrigPoly(m=m, coeffs=r) for r in rows])
        if len(wild):
            with pytest.raises(errors.DomainError) as info, np.errstate(over="ignore"):
                mi_dmc(c, DiscreteNoise.zero(m))
            assert not isinstance(info.value, errors.DuplicateSignals)
            assert str(info.value) == (
                "constellation point %d has non-finite energy" % wild[0]
            )
            rejected += 1
            continue
        pair = first_duplicate_scan(rows)
        want = pair and "constellation points %d and %d coincide" % pair
        try:
            mi_dmc(c, DiscreteNoise.zero(m))
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


def test_mi_dmc_bins_match_bytes_key_grouping_bitwise():
    # m = 6 is left out: its dense joint alone would take 400 MB
    rng = np.random.default_rng(5)
    for c in _key_cases(range(1, 6)):
        K, width = c.coeffs.shape
        offsets = np.zeros((3, width), dtype=complex)
        offsets[1, c.m] = 1e-3
        additive = DiscreteNoise.additive(offsets, [0.5, 0.3, 0.2])
        matrix = rng.random((K, K))
        transition = DiscreteNoise.transition(matrix / matrix.sum(axis=1, keepdims=True))
        for noise in (additive, transition):
            if noise.kind == "transition":
                joint, out = c.probs[:, None] * noise.matrix, c.coeffs
            else:
                out = np.array([row + off for row in c.coeffs for off in offsets])
                joint = np.zeros((K, 3 * K))
                for i in range(K):
                    joint[i, 3 * i : 3 * i + 3] = c.probs[i] * noise.offset_probs
            want = tuple(_mi_from_joint(merge_columns_loop(joint, keys))
                         for keys in (round_keys_loop(out, 9), sld_keys_loop(out)))
            assert repr(mi_dmc(c, noise)) == repr(want), (c.m, noise.kind)


def test_mi_distinguishes_intensity_scales():
    # tones of different power are different measurements even though
    # both are "flat"; binning must not normalize them into collision
    tones = Constellation.uniform(
        [TrigPoly(m=1, coeffs=[0, 2, 0]), TrigPoly(m=1, coeffs=[0, 3, 0])]
    )
    r = gap_experiment(tones)
    assert (r.i_xy, r.i_xs) == (1.0, 1.0)


def test_tones_whose_energy_reaches_2_to_1023_keep_their_own_bins():
    # a tone of power 1e308 has a finite c_0; doubled to inf, it would make
    # the bin radius inf and merge every measurement into one bin
    tones = Constellation.uniform([TrigPoly(m=1, coeffs=[0, dc, 0]) for dc in (1e154, 0.5e154)])
    r = gap_experiment(tones)
    assert (r.i_xy, r.i_xs) == (1.0, 1.0)
    assert mi_dmc(tones, DiscreteNoise.zero(1)) == (1.0, 1.0)


@pytest.mark.parametrize("x", [0.50000001, 0.50000005])
def test_tones_straddling_a_rounding_boundary_share_a_bin(x):
    # the last two tones' lags differ by 2e-11 in both cases; at 0.50000005
    # they lie either side of a 7-decimal rounding boundary
    tones = Constellation.uniform(
        [TrigPoly(m=1, coeffs=[0, dc, 0]) for dc in (1.0, np.sqrt(x - 1e-11), np.sqrt(x + 1e-11))]
    )
    r = gap_experiment(tones)
    assert r.i_xy == pytest.approx(np.log2(3), abs=1e-12)
    assert r.i_xs == pytest.approx(entropy_loop([1 / 3, 2 / 3]), abs=1e-12)


def test_mi_dmc_zero_noise_matches_gap_experiment():
    three = Constellation.uniform(
        [
            TrigPoly(m=1, coeffs=[0, 1, 1]),
            TrigPoly(m=1, coeffs=[1, 1, 0]),
            TrigPoly(m=1, coeffs=[0, 2, 0]),
        ]
    )
    a = mi_dmc(three, DiscreteNoise.zero(1))
    b = gap_experiment(three)
    assert a[0] == pytest.approx(b.i_xy, abs=1e-9)
    assert a[1] == pytest.approx(b.i_xs, abs=1e-9)


def test_mi_dmc_binary_symmetric():
    two = Constellation.uniform(
        [TrigPoly(m=0, coeffs=[1.0]), TrigPoly(m=0, coeffs=[2.0])]
    )
    i_xy, i_xs = mi_dmc(two, DiscreteNoise.flip(0.11))
    assert i_xy == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-12)
    assert i_xs <= i_xy + 1e-12
    useless, _ = mi_dmc(two, DiscreteNoise.flip(0.5))
    assert useless == pytest.approx(0.0, abs=1e-12)


def test_mi_dmc_additive_and_dpi():
    three = Constellation.uniform(
        [
            TrigPoly(m=1, coeffs=[0, 1, 1]),
            TrigPoly(m=1, coeffs=[1, 1, 0]),
            TrigPoly(m=1, coeffs=[0, 2, 0]),
        ]
    )
    noise = DiscreteNoise.additive(
        offsets=[[0, 0, 0], [0.05j, 0, 0], [0, -0.05, 0]],
        probs=[0.8, 0.1, 0.1],
    )
    i_xy, i_xs = mi_dmc(three, noise)
    assert 0.0 <= i_xs <= i_xy + 1e-12


def test_mi_dmc_transition_shape_guard():
    three = Constellation.uniform(
        [
            TrigPoly(m=1, coeffs=[0, 1, 1]),
            TrigPoly(m=1, coeffs=[1, 1, 0]),
            TrigPoly(m=1, coeffs=[0, 2, 0]),
        ]
    )
    with pytest.raises(errors.InvalidNoiseSpec):
        mi_dmc(three, DiscreteNoise.transition(np.array([[0.9, 0.1], [0.1, 0.9]])))
    with pytest.raises(errors.InvalidNoiseSpec):
        DiscreteNoise.transition(np.array([[0.9, 0.2], [0.1, 0.9]]))
    with pytest.raises(errors.InvalidNoiseSpec):
        DiscreteNoise.flip(1.5)


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


def test_gap_rejects_m_zero():
    c = Constellation.uniform(
        [TrigPoly(m=0, coeffs=[1.0]), TrigPoly(m=0, coeffs=[2.0])]
    )
    with pytest.raises(errors.UnsupportedOrder):
        gap_experiment(c)


def test_transform_roundtrip_and_guard():
    samples = np.linspace(0.0, 4.0, 33)
    out = measurement_transform(samples, np.sqrt, lambda y: y * y)
    assert np.abs(out - np.sqrt(samples)).max() == 0.0
    affine = measurement_transform(samples, lambda x: -2 * x + 7, lambda y: (7 - y) / 2)
    assert np.allclose(affine, -2 * samples + 7)
    with pytest.raises(errors.NonInvertibleOnRange):
        measurement_transform(
            np.linspace(-1, 1, 11), lambda x: x * x, lambda y: np.sqrt(np.abs(y))
        )
    with pytest.raises(errors.NonInvertibleOnRange):
        measurement_transform(samples, np.sqrt, lambda y: y)  # wrong inverse
    with pytest.raises(errors.NonInvertibleOnRange):
        measurement_transform(samples, np.sqrt, lambda y: np.full_like(y, np.nan))


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
