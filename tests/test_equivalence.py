"""Phase equivalence and the two magnitude-equivalence deciders."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sldlab import (
    ClassifiedRoot,
    CoeffPoly,
    RootMultiset,
    TrigPoly,
    ae_equal,
    degree_match,
    errors,
    joint_orbits,
    kappa_ratio,
    numeric_magnitude_equiv,
    phase_equiv,
    struct_magnitude_equiv,
)

from conftest import complex_vectors, poly_from_roots, separated_roots, trig_polys
from oracles import equiv_battery, find_roots_loop, kappa_grid, ratio_is_flat


def test_ae_equal_basics():
    p = TrigPoly(m=1, coeffs=[0, 1, 1])
    assert ae_equal(p, TrigPoly(m=1, coeffs=[0, 1, 1]))
    assert not ae_equal(p, TrigPoly(m=1, coeffs=[0, 1, 1.001]))
    # zero-padded copies describe the same waveform
    assert ae_equal(p, TrigPoly(m=2, coeffs=[0, 0, 1, 1, 0]))
    with pytest.raises(errors.PeriodMismatch):
        ae_equal(p, TrigPoly(m=1, coeffs=[0, 1, 1], period=2.0))


def test_phase_equiv_recovers_angle():
    p = TrigPoly(m=1, coeffs=[0, 1, 1])
    for phi in (-3.0, -0.5, 0.0, 1.2, np.pi - 1e-6):
        q = TrigPoly(m=1, coeffs=np.exp(1j * phi) * p.coeffs)
        v = phase_equiv(p, q)
        assert v.related
        assert v.phase == pytest.approx(phi, abs=1e-12)
    assert not phase_equiv(p, TrigPoly(m=1, coeffs=[1, 1, 0])).related


def test_phase_equiv_wraps_into_principal_range():
    p = TrigPoly(m=1, coeffs=[0, 1, 1])
    q = TrigPoly(m=1, coeffs=np.exp(1j * 5.0) * p.coeffs)
    v = phase_equiv(p, q)
    assert v.related
    assert -np.pi <= v.phase < np.pi
    assert v.phase == pytest.approx(5.0 - 2 * np.pi, abs=1e-12)


@given(trig_polys(), st.floats(-np.pi, np.pi, exclude_max=True))
def test_phase_equiv_property(p, phi):
    q = TrigPoly(m=p.m, coeffs=np.exp(1j * phi) * p.coeffs, period=p.period)
    v = phase_equiv(p, q)
    assert v.related
    assert abs(v.phase - phi) <= 1e-9 or abs(abs(v.phase - phi) - 2 * np.pi) <= 1e-9


def as_poly(coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    return CoeffPoly(coeffs=coeffs, n=len(coeffs) - 1)


def flipped_with_scale(roots, subset, lead=1.0):
    """Reflect the chosen roots and rescale so the circle magnitude is kept."""
    out = []
    scale = lead
    for j, r in enumerate(roots):
        if j in subset:
            out.append(1 / np.conj(r))
            scale *= abs(r)
        else:
            out.append(r)
    return poly_from_roots(out, lead=scale)


def test_struct_flip_pair():
    f = as_poly([-2, 1])
    g = as_poly([-1, 2])
    v = struct_magnitude_equiv(f, g)
    assert v.related and v.kappa == pytest.approx(1.0, abs=1e-9)
    w = numeric_magnitude_equiv(f, g)
    assert w.related and w.kappa == pytest.approx(1.0, abs=1e-9)


def test_struct_scale_only():
    f = as_poly(poly_from_roots([1j, 1j]))
    g = as_poly(5 * np.asarray(poly_from_roots([1j, 1j])))
    v = struct_magnitude_equiv(f, g)
    assert v.related
    assert v.kappa == pytest.approx(0.2, abs=1e-12)
    assert numeric_magnitude_equiv(f, g).kappa == pytest.approx(0.2, abs=1e-9)
    assert kappa_grid(f.coeffs, g.coeffs) == pytest.approx(0.2, abs=1e-9)


def test_struct_unrelated():
    v = struct_magnitude_equiv(as_poly([-2, 1]), as_poly([-3, 1]))
    assert not v.related and v.kappa is None
    assert not numeric_magnitude_equiv(as_poly([-2, 1]), as_poly([-3, 1])).related


def test_unrelated_verdict_names_witness():
    v = numeric_magnitude_equiv(as_poly([-2, 1]), as_poly([-3, 1]))
    assert "lag residual" in v.witness and "lambda" in v.witness


def test_circle_zeros_shared():
    base = poly_from_roots([1.0, 0.5])
    other = flipped_with_scale([1.0, 0.5], {1})
    v = struct_magnitude_equiv(as_poly(base), as_poly(other))
    assert v.related and v.kappa == pytest.approx(1.0, abs=1e-9)


def test_circle_zeros_mismatched():
    f = as_poly(poly_from_roots([1.0, 0.5]))
    g = as_poly(poly_from_roots([-1.0, 0.5]))
    assert not struct_magnitude_equiv(f, g).related
    assert not numeric_magnitude_equiv(f, g).related


@given(separated_roots(min_count=1, max_count=4), st.data())
def test_flip_agreement_property(roots, data):
    subset = {
        j for j in range(len(roots)) if data.draw(st.booleans(), label="flip %d" % j)
    }
    c = data.draw(st.floats(0.25, 4.0), label="scale")
    f = as_poly(poly_from_roots(roots))
    g = as_poly(c * np.asarray(flipped_with_scale(roots, subset)))
    sv = struct_magnitude_equiv(f, g)
    nv = numeric_magnitude_equiv(f, g)
    assert sv.related and nv.related
    assert sv.kappa == pytest.approx(1.0 / c, rel=1e-9)
    assert nv.kappa == pytest.approx(1.0 / c, rel=1e-9)
    assert nv.kappa == pytest.approx(kappa_grid(f.coeffs, g.coeffs), rel=1e-9)
    assert ratio_is_flat(f.coeffs, g.coeffs)
    # turning one root off its reflection orbit breaks the relation
    h = as_poly(poly_from_roots([roots[0] * np.exp(0.5j)] + list(roots[1:])))
    assert not numeric_magnitude_equiv(f, h).related
    assert not ratio_is_flat(f.coeffs, h.coeffs)


def test_lag_oracle_on_high_degree_battery():
    # exact Gaussian-integer pairs of degree 20-80; pair 12 (degree 56) is
    # one that a sampled |f|/|g| check at 1e-8 rejects, as g nearly
    # vanishes on the circle
    for f, g, kappa in equiv_battery():
        v = numeric_magnitude_equiv(as_poly(f), as_poly(g))
        assert v.related == (kappa is not None)
        if kappa is not None:
            assert v.kappa == pytest.approx(kappa, rel=1e-9)


@pytest.mark.parametrize(
    "sf, sg", ((1e-160, 1e-160), (1e150, 1e150), (1e-100, 1e100), (1e-300, 1.0))
)
def test_lag_oracle_is_scale_free(sf, sg):
    v = numeric_magnitude_equiv(as_poly([-2 * sf, sf]), as_poly([-sg, 2 * sg]))
    assert v.related and v.kappa == pytest.approx(sf / sg, rel=1e-12)
    assert not numeric_magnitude_equiv(as_poly([-2 * sf, sf]), as_poly([-3 * sg, sg])).related


def test_origin_powers_are_invisible_on_the_circle():
    # |z^k| = 1 there, so extra origin factors change nothing
    f = as_poly([0, 0, -2, 1])  # z^2 (z - 2)
    g = as_poly([0, -2, 1])  # z (z - 2)
    sv = struct_magnitude_equiv(f, g)
    nv = numeric_magnitude_equiv(f, g)
    assert sv.related and sv.kappa == pytest.approx(1.0, abs=1e-9)
    assert nv.related and nv.kappa == pytest.approx(1.0, abs=1e-9)
    assert ratio_is_flat(f.coeffs, g.coeffs)


def test_origin_powers_match():
    f = as_poly([0, -2, 1])
    g = as_poly([0, -1, 2])
    v = struct_magnitude_equiv(f, g)
    assert v.related and v.kappa == pytest.approx(1.0, abs=1e-9)


def test_degree_match():
    degree_match(as_poly([-2, 1]), as_poly([-1, 2]))
    with pytest.raises(errors.NotEquivalent):
        degree_match(as_poly([-2, 1]), as_poly(poly_from_roots([2.0, 3.0])))
    # trailing numerical dust does not change the effective degree
    degree_match(as_poly([-2, 1, 1e-15]), as_poly([-1, 2]))


def test_numeric_rejects_zero_polynomial():
    f = as_poly([-2, 1])
    z = as_poly([0.0, 0.0])
    with pytest.raises(errors.ZeroPolynomial):
        numeric_magnitude_equiv(f, z)


@given(complex_vectors(3))
def test_self_equivalence(coeffs):
    f = as_poly(coeffs)
    v = struct_magnitude_equiv(f, f)
    assert v.related and v.kappa == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), -1e-6))
def test_struct_rejects_bad_match_tol(bad):
    f = CoeffPoly(coeffs=poly_from_roots([2.0, 0.4j, -0.5]), n=3)
    with pytest.raises(errors.DomainError, match="tolerance"):
        struct_magnitude_equiv(f, f, match_tol=bad)


def _verdict_from_loops(f, g):
    """The structural verdict on roots found one polynomial at a time."""
    multisets = []
    for coeffs in (f, g):
        roots, origin, degree, leading = find_roots_loop(coeffs)
        multisets.append(RootMultiset(
            roots=tuple(ClassifiedRoot(*root) for root in roots),
            origin_mult=origin, degree=degree, leading_coeff=leading, circle_band=1e-9,
        ))
    try:
        kappa = kappa_ratio(*multisets, *joint_orbits(*multisets))
    except errors.ConditionViolated as exc:
        return False, None, str(exc)
    return True, np.float64(kappa).tobytes(), None


def test_struct_verdicts_match_one_polynomial_loops():
    rng = np.random.default_rng(8)
    pairs = [(f, g) for f, g, _ in equiv_battery(seed=8, count=8)]
    for m in (2, 9, 25):
        f = rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1)
        pairs.append((f, np.conj(f[::-1])))  # every root reflected: related
        pairs.append((f, f[: m + 1]))  # unequal degree
    verdicts = []
    for f, g in pairs:
        v = struct_magnitude_equiv(as_poly(f), as_poly(g))
        got = (v.related, None if v.kappa is None else np.float64(v.kappa).tobytes(), v.witness)
        assert got == _verdict_from_loops(f, g)
        verdicts.append(v.related)
    assert True in verdicts and False in verdicts
