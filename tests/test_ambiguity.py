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
from sldlab import (
    AutocorrSeq,
    ClassSet,
    CoeffPoly,
    FlipSpec,
    TrigPoly,
    autocorrelation,
    bundled_constellation,
    canonicalize,
    certify_bound,
    enumerate_classes,
    errors,
    factor_sld,
    find_roots,
    flip,
    lift,
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
    return [canonicalize(r).coeffs for r in cs.representatives]


def test_canonicalize_examples():
    assert np.array_equal(
        canonicalize(TrigPoly(m=0, coeffs=[-3.0])).coeffs, [3.0 + 0j]
    )
    got = canonicalize(TrigPoly(m=1, coeffs=[0, 1j, 1j]))
    assert np.allclose(got.coeffs, [0, 1, 1], atol=1e-15)
    got = canonicalize(TrigPoly(m=1, coeffs=[2j, 1, 0]))
    assert np.allclose(got.coeffs, [2, -1j, 0], atol=1e-15)
    assert got.coeffs[0] == 2.0  # pivot pinned exactly onto the real axis


def test_canonicalize_idempotent_bitwise():
    p = canonicalize(TrigPoly(m=1, coeffs=[2j, 1, 0]))
    again = canonicalize(p)
    assert np.array_equal(p.coeffs, again.coeffs)
    with pytest.raises(errors.ZeroSignal):
        canonicalize(TrigPoly(m=0, coeffs=[0.0]))


@given(trig_polys())
def test_canonicalize_property(p):
    c = canonicalize(p)
    pivot = c.coeffs[np.nonzero(np.abs(c.coeffs) > 1e-12 * np.abs(c.coeffs).max())[0][0]]
    assert pivot.imag == 0.0 and pivot.real > 0
    assert phase_equiv(p, c).related


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
    with pytest.raises(errors.CombinatorialBlowup):
        enumerate_classes(TrigPoly(m=1, coeffs=[6, -5, 1]), cap=2)


def test_flip_moves_one_orbit():
    P = lift(TrigPoly(m=1, coeffs=[6, -5, 1]))
    # orbits arrive sorted by representative; (1/3, 3) then (1/2, 2)
    g = flip(P, FlipSpec(orbit_splits=((0, 1), (1, 0)), shift=0))
    assert np.allclose(g.coeffs, [3, -7, 2], atol=1e-8)
    both = flip(P, FlipSpec(orbit_splits=((1, 0), (1, 0)), shift=0))
    assert np.allclose(both.coeffs, [1, -5, 6], atol=1e-8)
    assert numeric_magnitude_equiv(P, g).kappa == pytest.approx(1.0, rel=1e-9)


def test_flip_scale_declaration():
    P = lift(TrigPoly(m=1, coeffs=[6, -5, 1]))
    ok = flip(P, FlipSpec(orbit_splits=((0, 1), (1, 0)), shift=0, scale=2.0))
    assert np.allclose(ok.coeffs, [3, -7, 2], atol=1e-8)
    with pytest.raises(errors.InvalidSpec):
        flip(P, FlipSpec(orbit_splits=((0, 1), (1, 0)), shift=0, scale=1.0))


def test_flip_invalid_specs():
    P = lift(TrigPoly(m=1, coeffs=[6, -5, 1]))
    with pytest.raises(errors.InvalidSpec):
        flip(P, FlipSpec(orbit_splits=((0, 1),), shift=0))
    with pytest.raises(errors.InvalidSpec):
        flip(P, FlipSpec(orbit_splits=((2, 0), (1, 0)), shift=0))
    with pytest.raises(errors.InvalidSpec):
        flip(P, FlipSpec(orbit_splits=((0, 1), (0, 1)), shift=3))


def test_flip_refuses_a_nan_declared_scale():
    P = lift(TrigPoly(m=1, coeffs=[6, -5, 1]))
    with pytest.raises(errors.InvalidSpec, match="declared scale nan"):
        flip(P, FlipSpec(orbit_splits=((0, 1), (1, 0)), shift=0, scale=float("nan")))


@pytest.mark.parametrize("coeffs, spec", [
    ([6, -5, 1], FlipSpec(orbit_splits=((1.7, -0.7), (1, 0)), shift=0)),
    ([6, -5, 1], FlipSpec(orbit_splits=((0, 1.0), (1, 0)), shift=0)),
    ([2, -1, 0], FlipSpec(orbit_splits=((0, 1),), shift=0.5)),
    ([2, -1, 0], FlipSpec(orbit_splits=((0, 1),), shift=1.0)),
], ids=["fractional-split", "float-split", "fractional-shift", "float-shift"])
def test_flip_refuses_a_spec_entry_that_is_not_an_integer(coeffs, spec):
    # [2, -1, 0] has one orbit and room for a shift of 1
    with pytest.raises(errors.InvalidSpec, match="not an integer"):
        flip(lift(TrigPoly(m=1, coeffs=coeffs)), spec)


def test_flip_takes_numpy_integers_in_its_spec():
    P = lift(TrigPoly(m=1, coeffs=[2, -1, 0]))
    want = flip(P, FlipSpec(orbit_splits=((0, 1),), shift=1)).coeffs
    got = flip(P, FlipSpec(orbit_splits=((np.int64(0), np.int64(1)),), shift=np.int64(1))).coeffs
    assert got.tobytes() == want.tobytes()


def test_flip_twice_returns():
    P = lift(TrigPoly(m=1, coeffs=[6, -5, 1]))
    once = flip(P, FlipSpec(orbit_splits=((0, 1), (1, 0)), shift=0))
    back = flip(once, FlipSpec(orbit_splits=((0, 1), (0, 1)), shift=0))
    assert np.abs(back.coeffs - P.coeffs).max() <= 1e-8 * np.abs(P.coeffs).max()


def test_flip_complement_conjugate_reflects():
    p = TrigPoly(m=1, coeffs=[6, -5, 1])
    P = lift(p)
    everything = flip(P, FlipSpec(orbit_splits=((1, 0), (1, 0)), shift=0))
    reflected = np.conj(P.coeffs[::-1])
    assert phase_match(everything.coeffs, reflected)


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


def test_factor_rejects_indefinite_sequence():
    bad = AutocorrSeq(m=1, coeffs=[0, 1, 1, 1, 0])
    with pytest.raises(errors.NegativeIntensity):
        factor_sld(bad)
    with pytest.raises(errors.NotAnAutocorrelation):
        factor_sld(bad, check_intensity=False)


def test_factor_quadruple_circle_root():
    # |(z-1)^2|^2 has a single ambiguity class; the fourth-order circle
    # zero of the lift is the hardest clustering case the builder retries
    p = TrigPoly(m=1, coeffs=np.convolve([-1, 1], [-1, 1]))
    cs = factor_sld(autocorrelation(p))
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
        r = find_roots(lift(p))
        q = len(r.roots)
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


def _loop_args(args):
    """The per-candidate loop's arguments for _classes(*args).

    The loop gets unit scales, a leading 1.0 and parts multiplied out
    root by root.
    """
    orbits, circle, shift_hi, autocorr, cap = args
    table = [
        (np.array([poly_from_roots([inner] * j + [outer] * (k - j)) for j in range(k + 1)]),
         np.ones(k + 1))
        for inner, outer, k in orbits
    ]
    circle_coeffs = poly_from_roots([loc for loc, mult in circle for _ in range(mult)])
    return 1.0, table, circle_coeffs, shift_hi, autocorr.m, cap


def _check_against_loop(args, got):
    """got, the ClassSet of _classes(*args), against the loop's rows scaled to c_0."""
    c0 = args[3].c0
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
            shifted += args[2] > 0
            _check_against_loop(args, got)
    assert shifted >= 6


def _unit_energy(m):
    return autocorrelation(TrigPoly(m=m, coeffs=np.eye(2 * m + 1)[0]))


def test_batched_assembly_cap_and_degree_paths():
    orbits = [(0.5, 2.0, 1)]
    ok = (orbits, (), 1, _unit_energy(1), 2**20)
    _check_against_loop(ok, ambiguity._classes(*ok))
    too_many = (orbits, (), 1, _unit_energy(1), 3)
    with pytest.raises(errors.CombinatorialBlowup):
        ambiguity._classes(*too_many)
    with pytest.raises(ValueError, match="cap"):
        assemble_classes_loop(*_loop_args(too_many))
    too_long = (orbits, (), 2, _unit_energy(1), 2**20)
    with pytest.raises(errors.DegreeTooLarge):
        ambiguity._classes(*too_long)
    with pytest.raises(ValueError, match="degree"):
        assemble_classes_loop(*_loop_args(too_long))


def test_batched_assembly_keeps_both_near_copies_in_spec_order(monkeypatch):
    # the two splits of the first orbit differ by 1e-10, so every class is
    # built twice, in blocks that share no candidate; both copies stay
    monkeypatch.setattr(ambiguity, "_BLOCK_ROWS", 2)
    orbits = [(0.5 + 1e-10, 0.5, 1), (-0.5j, 2j, 1), (-4 + 4j, -0.25 - 0.25j, 1)]
    args = (orbits, (), 0, _unit_energy(2), 2**20)
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
        f = lift(p)
        r = find_roots(f)
        orbits, _, origin = pair_reciprocal(r)
        shift_hi = 2 * p.m - r.degree + origin
        shifted += shift_hi > 0
        splits = itertools.product(*[[(j, o.total - j) for j in range(o.total + 1)]
                                     for o in orbits])
        specs = [FlipSpec(orbit_splits=split, shift=shift)
                 for split in splits for shift in range(shift_hi + 1)]
        cs = enumerate_classes(p)
        assert len(specs) == cs.exact_count
        for spec, row in zip(specs, cs.coeffs):
            g = flip(f, spec).coeffs
            g = canonicalize(TrigPoly(m=p.m, coeffs=np.pad(g, (0, 2 * p.m + 1 - len(g))))).coeffs
            g = g * np.sqrt(cs.autocorr.c0 / np.sum(np.abs(g) ** 2))
            assert np.abs(g - row).max() <= 1e-13 * np.abs(row).max()
    assert shifted == 1


@pytest.mark.parametrize("solve", [
    lambda: find_roots(CoeffPoly(coeffs=[1, np.inf, 1])),
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
        r = find_roots(lift(p))
        orbits, _, origin = pair_reciprocal(r)
        shift_hi = 2 * p.m - r.degree + origin
        want = (shift_hi + 1) * math.prod(o.total + 1 for o in orbits)
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
        assert out.tobytes() == canonicalize(TrigPoly(m=2, coeffs=row)).coeffs.tobytes()


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
    yield "enumerate", cs, "representatives", 0.75
    yield "factor", factor_sld(cs.autocorr), "representatives", 0.75
    for m in range(1, 5):
        yield "bundled m=%d" % m, bundled_constellation(m, period=2.5), "signals", 2.5


def test_ensemble_views_are_the_array_rows():
    for name, ensemble, attr, period in _ensembles():
        rows = ensemble.coeffs
        assert rows.ndim == 2 and rows.shape[1] % 2 == 1, name
        assert not rows.flags.writeable, name
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        views = getattr(ensemble, attr)
        assert getattr(ensemble, attr) is views, name
        assert isinstance(views, tuple) and len(views) == len(rows), name
        for row, view in zip(rows, views):
            assert view.coeffs.tobytes() == row.tobytes(), name
            assert view.m == rows.shape[1] // 2 and view.period == period, name
        owner = ensemble if attr == "signals" else ensemble.autocorr
        assert owner.period == period, name


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


def test_enumerate_holds_its_rows_once_at_peak():
    # a generic m=8 draw: 65,536 classes, 17.8 MB of rows
    m = 8
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
    assert peak < 2 * cs.coeffs.nbytes
