"""Disk factors: unimodularity, exact special values, magnitude ratios."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sldlab import (
    BlaschkeProduct,
    CoeffPoly,
    errors,
    factor_eval,
    find_roots,
    from_inside_zeros,
    joint_orbits,
    kappa_ratio,
    product_eval,
)

from conftest import poly_from_roots
from oracles import kappa_grid


def circle(n, offset=0.31):
    return np.exp(2j * np.pi * (np.arange(n) + offset) / n)


def test_degenerate_factor_is_negation():
    z = circle(64)
    assert np.array_equal(factor_eval(0.0, z), -z)
    assert factor_eval(0.0, 0.7 + 0.2j) == -(0.7 + 0.2j)


def test_factor_at_origin_returns_zero_location():
    for alpha in (0.3, -0.5j, 0.2 + 0.6j):
        assert factor_eval(alpha, 0.0) == alpha


def test_factor_unimodular_on_circle():
    z = circle(256)
    for alpha in (0.0, 0.4, 0.7j, -0.3 + 0.45j):
        dev = np.abs(np.abs(factor_eval(alpha, z)) - 1.0).max()
        assert dev <= 1e-12


def test_factor_pole_guard():
    alpha = 0.5
    with pytest.raises(errors.PoleEvaluation):
        factor_eval(alpha, 2.0)  # 1/conj(alpha) exactly
    # just off the pole is fine
    assert np.isfinite(factor_eval(alpha, 2.0 + 1e-3))


@given(
    st.floats(0.01, 0.95),
    st.floats(0.0, 2 * np.pi, exclude_max=True),
    st.floats(0.0, 2 * np.pi, exclude_max=True),
)
def test_factor_unimodular_property(r, a, t):
    alpha = r * np.exp(1j * a)
    z = np.exp(1j * t)
    assert abs(abs(factor_eval(alpha, z)) - 1.0) <= 1e-12


def test_product_validation():
    BlaschkeProduct(tau=1.0, n0=1, factors=((0.3 + 0.1j, 2),))
    with pytest.raises(errors.DomainError):
        BlaschkeProduct(tau=2.0, n0=0, factors=())
    with pytest.raises(errors.DomainError):
        BlaschkeProduct(tau=1.0, n0=0, factors=((1.5, 1),))  # outside the disk
    with pytest.raises(errors.DomainError):
        BlaschkeProduct(tau=1.0, n0=0, factors=((0.0, 1),))  # gamma must be nonzero
    with pytest.raises(errors.DomainError):
        BlaschkeProduct(tau=1.0, n0=0, factors=((0.3, 0),))


def test_product_degree_and_eval():
    B = BlaschkeProduct(tau=1j, n0=2, factors=((0.5, 1), (0.2j, 3)))
    assert B.degree == 6
    z = circle(128)
    vals = product_eval(B, z)
    assert np.abs(np.abs(vals) - 1.0).max() <= 1e-12
    # hand-assembled product at one point
    w = 0.3 + 0.1j
    want = 1j * (-w) ** 2 * factor_eval(0.5, w) * factor_eval(0.2j, w) ** 3
    assert product_eval(B, w) == pytest.approx(want, abs=1e-14)


def test_from_inside_zeros():
    f = CoeffPoly(coeffs=poly_from_roots([0.5, 0.2j, 3.0]), n=3)
    B = from_inside_zeros(find_roots(f))
    got = sorted(B.factors, key=lambda fk: (fk[0].real, fk[0].imag))
    assert len(got) == 2
    assert got[0][0] == pytest.approx(0.2j, abs=1e-9)
    assert got[1][0] == pytest.approx(0.5, abs=1e-9)


def kappa_of(f_coeffs, g_coeffs):
    rf = find_roots(CoeffPoly(coeffs=f_coeffs, n=len(f_coeffs) - 1))
    rg = find_roots(CoeffPoly(coeffs=g_coeffs, n=len(g_coeffs) - 1))
    return kappa_ratio(*joint_orbits(rf, rg))


def test_kappa_flip_pair_is_one():
    # g = 2z - 1 carries the reflected root of f = z - 2 with the
    # magnitude-preserving scale
    assert kappa_of([-2, 1], [-1, 2]) == pytest.approx(1.0, abs=1e-12)


def test_kappa_plain_rescale():
    f = np.array(poly_from_roots([1j, 1j]))
    assert kappa_of(f, 5 * f) == pytest.approx(0.2, abs=1e-12)
    assert kappa_of(5 * f, f) == pytest.approx(5.0, abs=1e-12)


def test_kappa_reflected_root_no_rescale():
    # same orbit, no compensating scale: ratio is |root| pointwise
    assert kappa_of([-2, 1], [-0.5, 1]) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize(
    "f,g",
    [
        ([-2, 1], [-1, 2]),
        ([-2, 1], [-0.5, 1]),
        (poly_from_roots([0.5, 3.0], lead=2.0), poly_from_roots([0.5, 1 / 3], lead=9.0)),
        (poly_from_roots([0.4j, 0.4j]), poly_from_roots([2.5j, 0.4j], lead=0.4)),
    ],
)
def test_kappa_matches_grid_oracle(f, g):
    assert kappa_of(f, g) == pytest.approx(kappa_grid(f, g), rel=1e-9)


def test_kappa_rejects_mismatched_orbits():
    rf = find_roots(CoeffPoly(coeffs=poly_from_roots([0.5, 0.5]), n=2))
    rg = find_roots(CoeffPoly(coeffs=poly_from_roots([0.5]), n=1))
    with pytest.raises(errors.ConditionViolated):
        kappa_ratio(*joint_orbits(rf, rg))


def test_kappa_rejects_mismatched_circle_roots():
    rf = find_roots(CoeffPoly(coeffs=poly_from_roots([1.0, 1.0]), n=2))
    rg = find_roots(CoeffPoly(coeffs=poly_from_roots([1.0]), n=1))
    with pytest.raises(errors.ConditionViolated):
        kappa_ratio(*joint_orbits(rf, rg))


def test_many_random_products_unimodular(rng):
    z = circle(256)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        factors = tuple(
            (complex(g), int(e))
            for g, e in zip(
                rng.uniform(0.05, 0.9, k) * np.exp(2j * np.pi * rng.random(k)),
                rng.integers(1, 3, k),
            )
        )
        tau = np.exp(2j * np.pi * rng.random())
        B = BlaschkeProduct(tau=complex(tau), n0=int(rng.integers(0, 3)), factors=factors)
        worst = max(worst, float(np.abs(np.abs(product_eval(B, z)) - 1.0).max()))
    assert worst <= 1e-12
