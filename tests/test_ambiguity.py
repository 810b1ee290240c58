"""Class enumeration, measurement factorization, and their duality."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import sldlab
from sldlab import ambiguity
from sldlab import roots as root_finder
from sldlab import (
    AutocorrSeq,
    ClassSet,
    Constellation,
    TrigPoly,
    OrbitTable,
    autocorrelation,
    bundled_constellation,
    certify_bound,
    enumerate_classes,
    errors,
    factor_sld,
    find_roots,
    numeric_magnitude_equiv,
    pair_reciprocal,
    phase_equiv,
)

from conftest import poly_from_roots, trig_polys
from oracles import (
    assemble_classes_loop,
    canonical_phase,
    deviations_loop,
    lattice_ambiguity,
    phase_match,
    same_class_sets,
)

INT_LATTICE = [a + 1j * b for a in (-2, -1, 0, 1, 2) for b in (-1, 0, 1)]


def canon_rows(cs):
    return list(ambiguity._canonical_rows(cs.coeffs))


def test_canonical_rows_examples():
    got = ambiguity._canonical_rows(np.array([[-3.0, 0, 0], [0, 1j, 1j], [2j, 1, 0]]))
    assert np.array_equal(got[0], [3.0, 0, 0])
    assert np.allclose(got[1], [0, 1, 1], atol=1e-15)
    assert np.allclose(got[2], [2, -1j, 0], atol=1e-15)
    assert got[2, 0] == 2.0  # pivot pinned exactly onto the real axis


def test_canonical_rows_idempotent_bitwise():
    once = ambiguity._canonical_rows(np.array([[2j, 1, 0]]))
    assert ambiguity._canonical_rows(once).tobytes() == once.tobytes()
    with pytest.raises(errors.ZeroSignal):
        ambiguity._canonical_rows(np.array([[0j]]))
    # one zero row among nonzero ones is refused too
    with pytest.raises(errors.ZeroSignal):
        ambiguity._canonical_rows(np.array([[1.0, 2.0], [0, 0]], dtype=complex))


@given(trig_polys())
def test_canonical_rows_property(p):
    c = ambiguity._canonical_rows(p.coeffs[None, :])[0]
    pivot = c[np.nonzero(np.abs(c) > 1e-12 * np.abs(c).max())[0][0]]
    assert pivot.imag == 0.0 and pivot.real > 0
    assert phase_equiv(p, TrigPoly(m=p.m, coeffs=c)).related


def test_enumerate_shift_fixture():
    cs = enumerate_classes(TrigPoly(m=1, coeffs=[0, 1, 1]))
    assert cs.exact_count == 2
    assert cs.bound == 8
    # spec order: the one split, at origin shift 0 and then 1
    rows = canon_rows(cs)
    assert np.allclose(rows[0], [1, 1, 0], atol=1e-9)
    assert np.allclose(rows[1], [0, 1, 1], atol=1e-9)


def test_enumerate_shift_fixture_against_lattice():
    want = lattice_ambiguity(np.array([0, 1, 2, 1, 0]), INT_LATTICE, 3)
    got = canon_rows(enumerate_classes(TrigPoly(m=1, coeffs=[0, 1, 1])))
    assert same_class_sets(got, want)


def test_enumerate_two_orbit_example():
    cs = enumerate_classes(TrigPoly(m=1, coeffs=[6, -5, 1]))
    assert cs.exact_count == 4
    want = lattice_ambiguity(
        np.array([6, -35, 62, -35, 6]), list(range(-7, 8)), 3
    )
    assert same_class_sets(canon_rows(cs), want)


def test_enumerate_constant_signal():
    cs = enumerate_classes(TrigPoly(m=0, coeffs=[3.0]))
    assert cs.exact_count == 1
    assert cs.bound == 2
    assert certify_bound(cs).passed


def test_enumerate_rejects_zero():
    with pytest.raises(errors.ZeroSignal):
        enumerate_classes(TrigPoly(m=1, coeffs=[0, 0, 0]))


def test_enumerate_cap():
    # a generic m=11 signal has 4^11 flip specs, over the cap of 2^20
    rng = np.random.default_rng(11)
    angles = 2 * np.pi * (np.arange(22) + rng.uniform(0.2, 0.8, 22)) / 22
    p = _normalized(rng.uniform(0.4, 0.8, 22) * np.exp(1j * angles), 11)
    assert 4**11 > ambiguity._CAP
    with pytest.raises(errors.CombinatorialBlowup):
        enumerate_classes(p)


def test_two_orbit_rows_in_spec_order():
    # roots 2 and 3; orbits arrive sorted by representative, (1/3, 3) then
    # (1/2, 2), and split j of an orbit puts j roots inside: row 1 moves
    # 2 inside, row 3 moves both, the conjugate reflection of the source
    p = TrigPoly(m=1, coeffs=[6, -5, 1])
    cs = enumerate_classes(p)
    want = [[6, -5, 1], [3, -7, 2], [2, -7, 3], [1, -5, 6]]
    assert np.allclose(cs.coeffs, want, atol=1e-8)


def test_flip_moves_one_orbit():
    # rows 1 and 2 each reflect one root of the source and keep the other,
    # and every row has the source's magnitude on the circle
    p = TrigPoly(m=1, coeffs=[6, -5, 1])
    cs = enumerate_classes(p)
    for row, kept, moved in ((cs.coeffs[1], 3.0, 0.5), (cs.coeffs[2], 2.0, 1 / 3)):
        found = sorted(map(abs, find_roots(row).locations.tolist()))
        assert found == pytest.approx(sorted((kept, moved)), rel=1e-9)
    for row in cs.coeffs:
        ratio = numeric_magnitude_equiv(p.coeffs, row)
        assert ratio.related and ratio.kappa == pytest.approx(1.0, rel=1e-9)


def test_flip_complement_conjugate_reflects():
    # with every root outside, the first spec is the source and the last,
    # which moves every orbit inside, is its conjugate reflection
    for p in (_normalized([2.0, 3.0], 1), _normalized([2j, -1.5, 1.2 + 1.1j, -3 - 1j], 2)):
        cs = enumerate_classes(p)
        assert phase_match(cs.coeffs[0], p.coeffs, tol=1e-9)
        assert phase_match(cs.coeffs[-1], np.conj(p.coeffs[::-1]), tol=1e-9)


def test_flip_twice_returns():
    # enumerating from any class of a measurement gives back the same class
    # set, the source among it
    p = TrigPoly(m=1, coeffs=[6, -5, 1])
    cs = enumerate_classes(p)
    for row in cs.coeffs:
        again = enumerate_classes(TrigPoly(m=1, coeffs=row))
        assert same_class_sets(canon_rows(again), canon_rows(cs), tol=1e-8)
        assert any(phase_match(back, p.coeffs, tol=1e-8) for back in again.coeffs)


def test_factor_tone_fixture_against_lattice():
    cs = factor_sld(AutocorrSeq(m=1, coeffs=[0, 0, 1, 0, 0]))
    assert cs.exact_count == 3
    want = lattice_ambiguity(np.array([0, 0, 1, 0, 0]), INT_LATTICE, 3)
    assert same_class_sets(canon_rows(cs), want)


def test_factor_shift_fixture():
    cs = factor_sld(AutocorrSeq(m=1, coeffs=[0, 1, 2, 1, 0]))
    assert cs.exact_count == 2
    assert same_class_sets(
        canon_rows(cs),
        canon_rows(enumerate_classes(TrigPoly(m=1, coeffs=[0, 1, 1]))),
    )


def test_factor_rejects_indefinite_sequence(monkeypatch):
    bad = AutocorrSeq(m=1, coeffs=[0, 1, 1, 1, 0])
    with pytest.raises(errors.NegativeIntensity):
        factor_sld(bad)
    # past the intensity screen, the structural orbit pairing refuses it
    monkeypatch.setattr(ambiguity, "screen_intensity", lambda s: None)
    with pytest.raises(errors.NotAnAutocorrelation):
        factor_sld(bad)


def test_factor_screens_every_call_before_solving(monkeypatch):
    # the intensity screen sees the measurement itself, once per call,
    # before any root is solved for
    s = autocorrelation(TrigPoly(m=1, coeffs=[6, -5, 1]))
    seen = []
    screen, solve = ambiguity.screen_intensity, ambiguity._rungs
    monkeypatch.setattr(ambiguity, "screen_intensity",
                        lambda arg: seen.append(("screen", arg)) or screen(arg))
    monkeypatch.setattr(ambiguity, "_rungs",
                        lambda *a, **k: seen.append(("solve", None)) or solve(*a, **k))
    for _ in range(2):
        del seen[:]
        assert factor_sld(s).exact_count == 4
        assert seen[0] == ("screen", s)
        assert [kind for kind, _ in seen].count("screen") == 1
        assert "solve" in [kind for kind, _ in seen[1:]]


def test_factor_quadruple_circle_root(monkeypatch):
    # |(z-1)^2|^2 has a single ambiguity class; the fourth-order circle
    # zero of the lift is the hardest clustering case the builder retries,
    # each rung re-clustering the roots of one solve
    p = TrigPoly(m=1, coeffs=np.convolve([-1, 1], [-1, 1]))
    solves, rungs = [], []
    solve, cluster = root_finder._solve, root_finder._cluster
    monkeypatch.setattr(root_finder, "_solve", lambda *a: solves.append(a) or solve(*a))
    monkeypatch.setattr(root_finder, "_cluster", lambda z, radius: rungs.append(radius)
                        or cluster(z, radius))
    cs = factor_sld(autocorrelation(p))
    assert len(solves) == 1 and len(rungs) > 1
    assert rungs == list(ambiguity._RUNGS[: len(rungs)])
    assert cs.exact_count == 1
    assert phase_match(canon_rows(cs)[0], p.coeffs, tol=1e-4)
    assert certify_bound(cs).max_residual <= 1e-5


def test_certify_reports_residuals():
    cs = enumerate_classes(TrigPoly(m=1, coeffs=[0, 1, 1]))
    rep = certify_bound(cs)
    assert rep.passed
    assert rep.exact_count == 2 and rep.bound == 8
    assert len(rep.residuals) == 2
    assert rep.max_residual <= 1e-8


@given(trig_polys(max_m=2))
@settings(max_examples=40)
def test_enumerate_respects_bound(p):
    try:
        cs = enumerate_classes(p)
    except errors.ZeroSignal:
        return
    assert cs.exact_count <= 2 ** (2 * p.m + 1)
    assert certify_bound(cs).passed


@given(trig_polys(max_m=2))
@settings(max_examples=30)
def test_duality_property(p):
    try:
        cs = enumerate_classes(p)
    except errors.ZeroSignal:
        return
    fs = factor_sld(autocorrelation(p))
    assert same_class_sets(canon_rows(cs), canon_rows(fs), tol=1e-5)


@pytest.mark.parametrize("eps", [2.12235957e-10, 1e-7, 3e-7, 1e-9, 8e-14, 1e-13, 2e-13])
def test_duality_where_the_signal_ends_are_kept_and_their_lags_are_tiny(eps):
    # [eps, 1, eps] has roots -eps and -1/eps, one reflection orbit of two
    # roots: 3 classes. Its lag ends eps^2 fall below the structural-zero
    # cut, and trimming them used to make factor_sld find 4.
    p = TrigPoly(m=1, coeffs=[eps, 1, eps])
    cs, fs = enumerate_classes(p), factor_sld(autocorrelation(p))
    assert cs.exact_count == fs.exact_count == 3
    assert same_class_sets(canon_rows(cs), canon_rows(fs), tol=1e-5)


def test_count_law_generic():
    # q well-separated orbits, full degree, nonzero ends: 2^q classes
    for roots in ([0.5], [0.5, 3.0], [0.4j, -2.0, 1.7]):
        coeffs = poly_from_roots(roots)
        m = (len(coeffs) - 1 + 1) // 2
        padded = np.concatenate([coeffs, np.zeros(2 * m + 1 - len(coeffs))])
        if len(padded) != 2 * m + 1:
            raise AssertionError("fixture arithmetic is off")
        p = TrigPoly(m=m, coeffs=padded)
        cs = enumerate_classes(p)
        r = find_roots(p.coeffs)
        q = len(r.locations)
        if r.origin_mult == 0 and r.degree == 2 * m:
            assert cs.exact_count == 2**q


def test_lattice_completeness_small():
    """No magnitude twin outside the enumerated classes at desk scale.

    Brute force over the integer lattice around two small signals; every
    lattice vector with the same lag sequence must land in one of the
    enumerated classes.
    """
    for coeffs in ([0, 1, 1], [1, 1, 1]):
        p = TrigPoly(m=1, coeffs=coeffs)
        target = autocorrelation(p).coeffs
        survivors = lattice_ambiguity(target, INT_LATTICE, 3)
        reps = canon_rows(enumerate_classes(p))
        for row in survivors:
            assert any(phase_match(row, rep, tol=1e-6) for rep in reps)
        assert len(survivors) == len(reps)


def _normalized(roots, m):
    coeffs = poly_from_roots(roots)
    coeffs = np.concatenate([coeffs, np.zeros(2 * m + 1 - len(coeffs))])
    return TrigPoly(m=m, coeffs=coeffs / np.linalg.norm(coeffs))


def _assembly_signals():
    rng = np.random.default_rng(9090)
    for m in range(1, 7):  # generic: one root per angular slot, none reflected
        slot = 2 * np.pi / (2 * m)
        angles = slot * (np.arange(2 * m) + rng.uniform(0.2, 0.8, 2 * m))
        radii = rng.uniform(0.4, 0.8, 2 * m) ** rng.choice([-1, 1], 2 * m)
        yield _normalized(radii * np.exp(1j * angles), m)
    yield _normalized([np.exp(0.3j), 0.5 * np.exp(1.1j), 2 * np.exp(-2j), np.exp(2.5j)], 2)
    yield _normalized([1j, 1j, 0.5, 2.0], 2)  # a double circle root
    yield _normalized([0.5j, 0.5j, 1.7, -0.4 + 0.2j], 2)  # a double inner root
    yield _normalized([0.6, 0.6, 0.6, 1.5 + 1j, -2.0, 0.3j], 3)  # a triple root
    yield TrigPoly(m=1, coeffs=[0, 1, 1])  # origin shifts, shift_hi = 1
    yield TrigPoly(m=2, coeffs=[0.5, -1, 2, 0, 0])  # degree 2 of 4: shift_hi = 2
    yield TrigPoly(m=2, coeffs=[0, 0, 1, 0.5j, -0.25])
    for squeeze in (0.9, 0.99, 0.999):  # roots pushed toward the circle
        for _ in range(3):
            angles = rng.uniform(0.0, 2 * np.pi, 8)
            radii = np.exp(rng.uniform(-0.7, 0.7, 8)) ** (1.0 - squeeze)
            yield _normalized(radii * np.exp(1j * angles), 4)


def _shift_hi(table, autocorr):
    """The largest origin shift of the classes of an OrbitTable."""
    return 2 * autocorr.m - (table.degree - table.origin)


def _table(orbits, shift_hi, m):
    """An OrbitTable of orbits (inner, outer, k) held all inside, no circle
    root, and origin shifts 0..shift_hi at order m."""
    return OrbitTable(tuple((inner, outer, k, 0) for inner, outer, k in orbits), (),
                      0, 2 * m - shift_hi, 1.0)


def _loop_args(args):
    """The per-candidate loop's arguments for _classes(*args).

    The loop gets unit scales, a leading 1.0, parts multiplied out root by
    root and the circle roots at their unit locations.
    """
    table, autocorr = args
    parts = []
    for inner, outer, k_inner, k_outer in table.orbits:
        k = k_inner + k_outer
        parts.append((np.array([poly_from_roots([inner] * j + [outer] * (k - j))
                                for j in range(k + 1)]), np.ones(k + 1)))
    circle_coeffs = poly_from_roots([loc / abs(loc) for loc, mult in table.circle
                                     for _ in range(mult)])
    return 1.0, parts, circle_coeffs, _shift_hi(*args), autocorr.m, ambiguity._CAP


def _check_against_loop(args, got):
    """got, the ClassSet of _classes(*args), against the loop's rows scaled to c_0."""
    c0 = args[1].c0
    want = assemble_classes_loop(*_loop_args(args))
    assert len(got.coeffs) == len(want)
    for row, ref in zip(got.coeffs, want):
        ref = ref * np.sqrt(c0 / np.sum(np.abs(ref) ** 2))
        assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("block_rows", [ambiguity._BLOCK_ROWS, 8])
def test_batched_assembly_matches_per_candidate_loop(monkeypatch, block_rows):
    monkeypatch.setattr(ambiguity, "_BLOCK_ROWS", block_rows)
    calls = []
    batched = ambiguity._classes

    def spy(*args):
        got = batched(*args)
        calls.append((args, got))
        return got

    monkeypatch.setattr(ambiguity, "_classes", spy)
    shifted = 0
    for p in _assembly_signals():
        del calls[:]
        sets = [enumerate_classes(p)]
        try:
            sets.append(factor_sld(autocorrelation(p)))
        except errors.NotAnAutocorrelation:
            pass
        # every class of one measurement has its energy c_0, to the
        # rounding of a (2m+1)-term sum
        for cs in sets:
            energy = np.sum(np.abs(cs.coeffs) ** 2, axis=1)
            ulps = cs.coeffs.shape[1] * np.finfo(float).eps * cs.autocorr.c0
            assert np.abs(energy - cs.autocorr.c0).max() <= ulps
        assert len(calls) >= 2
        for args, got in calls:
            shifted += _shift_hi(*args) > 0
            _check_against_loop(args, got)
    assert shifted >= 6


def _unit_energy(m):
    return autocorrelation(TrigPoly(m=m, coeffs=np.eye(2 * m + 1)[0]))


def test_class_rows_keep_their_bits_at_any_block_size(monkeypatch):
    # the order the orbit parts multiply in fixes each row's rounding; the
    # block size only bounds the temporaries. bundled_constellation(7) has
    # 16,384 class rows, past _FOLD_ROWS, so its leading orbits fold apart
    tables = [(pair_reciprocal(find_roots(p.coeffs)), autocorrelation(p))
              for p in _assembly_signals()]
    want = [ambiguity._class_rows(*args).tobytes() for args in tables]
    bundled = bundled_constellation(7).coeffs.tobytes()
    for block_rows in (2, 100, 4096, 2**20):
        monkeypatch.setattr(ambiguity, "_BLOCK_ROWS", block_rows)
        assert [ambiguity._class_rows(*args).tobytes() for args in tables] == want
        assert bundled_constellation(7).coeffs.tobytes() == bundled


def test_batched_assembly_cap_and_degree_paths(monkeypatch):
    orbits = [(0.5, 2.0, 1)]
    ok = (_table(orbits, 1, 1), _unit_energy(1))
    _check_against_loop(ok, ambiguity._classes(*ok))
    with monkeypatch.context() as mp:
        mp.setattr(ambiguity, "_CAP", 3)
        too_many = (_table(orbits, 1, 1), _unit_energy(1))
        with pytest.raises(errors.CombinatorialBlowup):
            ambiguity._classes(*too_many)
        with pytest.raises(ValueError, match="cap"):
            assemble_classes_loop(*_loop_args(too_many))
    too_long = (_table(orbits, 2, 1), _unit_energy(1))
    with pytest.raises(errors.DegreeTooLarge):
        ambiguity._classes(*too_long)
    with pytest.raises(ValueError, match="degree"):
        assemble_classes_loop(*_loop_args(too_long))


def test_batched_assembly_keeps_both_near_copies_in_spec_order(monkeypatch):
    # the two splits of the first orbit differ by 1e-10, so every class is
    # built twice, in blocks that share no candidate; both copies stay
    monkeypatch.setattr(ambiguity, "_BLOCK_ROWS", 2)
    orbits = [(0.5 + 1e-10, 0.5, 1), (-0.5j, 2j, 1), (-4 + 4j, -0.25 - 0.25j, 1)]
    args = (_table(orbits, 0, 2), _unit_energy(2))
    cs = ambiguity._classes(*args)
    got = cs.coeffs
    assert len(got) == 8
    _check_against_loop(args, cs)
    # the first orbit's split leads the product order: row i and row i + 4
    # are the two copies of one class
    gaps = np.abs(got[:4] - got[4:]).max(axis=1) / np.abs(got[:4]).max(axis=1)
    assert np.all((0 < gaps) & (gaps <= 1e-9))


def test_flip_of_each_spec_is_its_enumerated_row():
    signals = [s for s in _assembly_signals() if s.m <= 3][:3]
    signals.append(_normalized([0.0, 0.5j, 1.7, -0.4 + 0.2j], 2))  # an origin root
    shifted = 0
    for p in signals:
        table = pair_reciprocal(find_roots(p.coeffs))
        shift_hi = 2 * p.m - table.degree + table.origin
        shifted += shift_hi > 0
        circle = poly_from_roots([loc / abs(loc) for loc, k in table.circle for _ in range(k)])
        totals = [k_inner + k_outer for _, _, k_inner, k_outer in table.orbits]
        specs = [(split, shift)
                 for split in itertools.product(*[range(k + 1) for k in totals])
                 for shift in range(shift_hi + 1)]
        cs = enumerate_classes(p)
        assert len(specs) == cs.exact_count
        for (split, shift), row in zip(specs, cs.coeffs):
            # the spec's one candidate: split j puts j of an orbit's roots inside
            parts = [(poly_from_roots([inner] * j + [outer] * (k - j))[None, :], np.ones(1))
                     for (inner, outer, _, _), k, j in zip(table.orbits, totals, split)]
            g = assemble_classes_loop(1.0, parts, circle, shift_hi, p.m, 2**20)[shift]
            g = g * np.sqrt(cs.autocorr.c0 / np.sum(np.abs(g) ** 2))
            assert np.abs(g - row).max() <= 1e-13 * np.abs(row).max()
    assert shifted == 1


@pytest.mark.parametrize("solve", [
    lambda: find_roots([1, np.inf, 1]),
    lambda: enumerate_classes(TrigPoly(m=1, coeffs=[1, np.nan, 1])),
    lambda: factor_sld(AutocorrSeq(m=1, coeffs=[0, np.nan, 2, np.nan, 0])),
], ids=["find_roots", "enumerate_classes", "factor_sld"])
def test_non_finite_coefficients_raise_domain_error(solve):
    with pytest.raises(errors.DomainError, match="finite"):
        solve()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_enumerate_refuses_a_signal_whose_energy_overflows():
    # c_0 is infinite, so no residual can be measured: a NaN is a miss
    with pytest.raises(errors.DomainError, match="misses the source measurement by nan"):
        enumerate_classes(TrigPoly(m=1, coeffs=[1e300, 1e300, 1e300]))


def test_enumerate_keeps_a_root_just_off_the_circle():
    # the root at radius 1 + 1e-8 and its reflection give classes that
    # agree to about 1e-8: four orbits, 16 classes, none merged
    roots = [(1 + 1e-8) * np.exp(0.7j), 0.5 * np.exp(2.1j), 1.8 * np.exp(-1.2j),
             0.6 * np.exp(-2.6j)]
    cs = enumerate_classes(_normalized(roots, 2))
    assert cs.exact_count == 16
    assert max(cs.residuals) <= 1e-12


def test_class_count_is_the_closed_form_count():
    for p in _assembly_signals():
        table = pair_reciprocal(find_roots(p.coeffs))
        shift_hi = 2 * p.m - table.degree + table.origin
        want = (shift_hi + 1) * math.prod(k_inner + k_outer + 1
                                          for _, _, k_inner, k_outer in table.orbits)
        assert enumerate_classes(p).exact_count == want


def test_canonical_rows_match_per_vector_rule_bitwise():
    rng = np.random.default_rng(31)
    rows = rng.standard_normal((40, 5)) + 1j * rng.standard_normal((40, 5))
    rows[:8, :2] = 0  # leading zeros move the pivot
    rows[8:12, 0] = 1e-14  # below 1e-12 of the top: not a pivot
    rows[12:16, 0] = np.abs(rows[12:16, 0]) * np.exp(1j * np.array([1e-13, -1e-13, 0, 3e-12]))
    rows[16:20, 0] = -np.abs(rows[16:20, 0])  # negative real pivot
    rows[20:24, 0] = np.abs(rows[20:24, 0])
    rows[20:24:2, 0].imag = -0.0  # positive real pivots, imaginary part -0.0
    got = ambiguity._canonical_rows(rows)
    for row, out in zip(rows, got):
        assert out.tobytes() == canonical_phase(row).tobytes()


def test_class_path_computes_autocorrelation_at_most_twice(monkeypatch):
    original = sldlab.signals.autocorrelation
    calls = []

    def counted(p):
        calls.append(p.m)
        return original(p)

    for name, module in list(sys.modules.items()):
        if name == "sldlab" or name.startswith("sldlab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    p = next(s for s in _assembly_signals() if s.m == 4)
    cs = enumerate_classes(p)
    fs = factor_sld(cs.autocorr)
    assert certify_bound(cs).passed and certify_bound(fs).passed
    assert cs.exact_count == fs.exact_count == 256
    assert len(calls) <= 2


def _deviation_cases():
    """(rows, target) pairs: random rows at scales 1e-150..1e150 with zero
    rows and zero DC coefficients among them, and the bundled
    constellations, whose tones have zero lags, against one of their own
    measurements."""
    rng = np.random.default_rng(19)
    for m in range(9):
        width = 2 * m + 1
        for scale in (1e-150, 1e-75, 1.0, 1e75, 1e150):
            rows = rng.standard_normal((12, width)) + 1j * rng.standard_normal((12, width))
            rows *= scale * 10.0 ** rng.uniform(-1, 1, (12, 1))
            rows[0] = 0
            rows[1:4, m] = 0
            rows[4] = rows[5] * np.exp(1.3j)
            yield rows, autocorrelation(TrigPoly(m=m, coeffs=rows[5] * (1 + 1e-9))).coeffs
    for m in range(1, 7):
        c = bundled_constellation(m)
        for j in (0, -1):
            yield c.coeffs, autocorrelation(TrigPoly(m=m, coeffs=c.coeffs[j])).coeffs


def test_deviations_match_the_full_lag_loop_bitwise():
    for rows, target in _deviation_cases():
        got = ambiguity._deviations(rows, target)
        assert got.tobytes() == deviations_loop(rows, target).tobytes()


# a generic order-2 signal whose energy c_0 is one ulp under 2^1023
_NEAR_OVERFLOW = [
    3.877994783451877e+153 - 4.914603566849608e+153j,
    2.4329131038781793e+153 - 1.087152377335003e+153j,
    1.962844178209247e+153 - 3.2173428534978575e+153j,
    1.896710888212628e+152 + 3.996300359457246e+153j,
    3.6483979673297024e+153 + 2.650788617481091e+152j,
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rows_whose_full_lags_overflow_are_refused():
    # a part of 2^1023 or more is finite in the lags k >= 0 but doubles to
    # inf in the full row, so the row misses by inf, as the full row did
    rows = np.array([[2.0**511, 2.0**511, 0], [0, 2.0**511, 2.0**510]], dtype=complex)
    target = autocorrelation(TrigPoly(m=1, coeffs=rows[1])).coeffs
    assert np.all(np.isfinite(sldlab.signals._half_lags(rows)))
    got = ambiguity._deviations(rows, target)
    assert got[0] == np.inf and np.isfinite(got[1])
    assert got.tobytes() == deviations_loop(rows, target).tobytes()
    # rescaling the classes to that c_0 rounds some of their c_0 up to 2^1023
    p = TrigPoly(m=2, coeffs=_NEAR_OVERFLOW)
    s = autocorrelation(p)
    assert s.c0 < 2.0**1023
    with pytest.raises(errors.DomainError, match="misses the source measurement by inf"):
        enumerate_classes(p)
    with pytest.raises(errors.NotAnAutocorrelation, match="misses the sequence by inf"):
        factor_sld(s)


def test_factor_makes_one_residual_pass(monkeypatch):
    original = ambiguity._deviations
    passes = []

    def counted(rows, target):
        passes.append(len(rows))
        return original(rows, target)

    monkeypatch.setattr(ambiguity, "_deviations", counted)
    p = next(s for s in _assembly_signals() if s.m == 4)
    cs = enumerate_classes(p)
    assert passes == [256]
    passes.clear()
    fs = factor_sld(cs.autocorr)
    assert fs.exact_count == 256
    assert passes == [256]


def _ensembles():
    p = next(s for s in _assembly_signals() if s.m == 4)
    p = TrigPoly(m=p.m, coeffs=p.coeffs, period=0.75)
    cs = enumerate_classes(p)
    yield "enumerate", cs, cs.autocorr, 0.75
    yield "factor", factor_sld(cs.autocorr), cs.autocorr, 0.75
    for m in range(1, 5):
        bundled = bundled_constellation(m)
        c = Constellation(coeffs=bundled.coeffs, probs=bundled.probs, period=2.5)
        yield "bundled m=%d" % m, c, c, 2.5


def test_ensemble_views_are_the_array_rows():
    for name, ensemble, owner, period in _ensembles():
        rows = ensemble.coeffs
        assert rows.ndim == 2 and rows.shape[1] % 2 == 1, name
        assert not rows.flags.writeable, name
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        assert owner.period == period, name
        if owner is not ensemble:
            continue
        # a constellation's signals are TrigPoly views of its rows
        views = ensemble.signals
        assert ensemble.signals is views, name
        assert isinstance(views, tuple) and len(views) == len(rows), name
        for row, view in zip(rows, views):
            assert view.coeffs.tobytes() == row.tobytes(), name
            assert view.m == rows.shape[1] // 2 and view.period == period, name


def test_class_set_rejects_rows_of_another_shape():
    s = autocorrelation(TrigPoly(m=1, coeffs=[6.0, -5.0, 1.0]))
    for rows in ([6.0, -5.0, 1.0], np.zeros((2, 5)), np.zeros((2, 4)), np.zeros((1, 1, 3))):
        with pytest.raises(errors.DomainError, match="2m\\+1"):
            ClassSet(coeffs=rows, autocorr=s)
    assert ClassSet(coeffs=[[6.0, -5.0, 1.0]], autocorr=s).residuals == (0.0,)


def test_class_set_copies_only_writable_rows():
    s = autocorrelation(TrigPoly(m=1, coeffs=[6.0, -5.0, 1.0]))
    rows = np.array([[6.0, -5.0, 1.0], [1.0, -5.0, 6.0]], dtype=complex)
    cs = ClassSet(coeffs=rows, autocorr=s)
    assert cs.coeffs is not rows and not cs.coeffs.flags.writeable
    rows[0] = 0
    assert cs.coeffs[0].tolist() == [6.0, -5.0, 1.0]
    # a read-only complex array is the caller's to hand over
    assert ClassSet(coeffs=cs.coeffs, autocorr=s).coeffs is cs.coeffs


def _enumerate_peak(m):
    """enumerate_classes of a generic seed-7 order-m draw, and its tracemalloc peak."""
    rng = np.random.default_rng(7)
    slot = 2 * np.pi / (2 * m)
    angles = slot * (np.arange(2 * m) + rng.uniform(0.2, 0.8, 2 * m))
    radii = rng.uniform(0.4, 0.8, 2 * m) ** rng.choice([-1, 1], 2 * m)
    p = _normalized(radii * np.exp(1j * angles), m)
    tracemalloc.start()
    try:
        cs = enumerate_classes(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cs.exact_count == 2 ** (2 * m)
    return cs, peak


def test_enumerate_holds_its_rows_once_at_peak():
    # a generic m=8 draw: 65,536 classes, 17.8 MB of rows
    cs, peak = _enumerate_peak(8)
    assert peak < 2 * cs.coeffs.nbytes


def test_enumerate_scales_its_rows_block_by_block():
    # a generic m=9 draw: 262,144 classes, 79.7 MB of rows; scaling all
    # rows at once after the block loop peaks near 1.6 times that
    cs, peak = _enumerate_peak(9)
    assert peak < 1.4 * cs.coeffs.nbytes
