"""The constant magnitude ratio kappa of two polynomials on the circle."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sldlab import (
    CoeffPoly,
    errors,
    find_roots,
    joint_orbits,
    kappa_ratio,
)

from conftest import poly_from_roots
from oracles import kappa_grid


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


@given(
    st.floats(0.01, 0.95),
    st.floats(0.0, 2 * np.pi, exclude_max=True),
)
def test_reflecting_one_root_scales_by_its_modulus(r, a):
    # |z - alpha| = |alpha| |z - 1/conj(alpha)| on the circle: the Blaschke
    # factor of alpha is unimodular there
    alpha = r * np.exp(1j * a)
    assert kappa_of([-alpha, 1], [-1 / np.conj(alpha), 1]) == pytest.approx(r, rel=1e-12)


@pytest.mark.parametrize(
    "f,g",
    [
        ([-2, 1], [-1, 2]),
        ([-2, 1], [-0.5, 1]),
        (poly_from_roots([0.5, 3.0], lead=2.0), poly_from_roots([0.5, 1 / 3], lead=9.0)),
        (poly_from_roots([0.4j, 0.4j]), poly_from_roots([2.5j, 0.4j], lead=0.4)),
        # origin roots and a double root, reflected in part
        (poly_from_roots([0.0, 0.0, 0.5, 0.2j, 0.2j], lead=1j),
         poly_from_roots([2.0, 5j, 0.2j], lead=0.7)),
        (poly_from_roots([0.0, 0.3 + 0.6j, 0.3 + 0.6j], lead=-2.0),
         poly_from_roots([1 / (0.3 - 0.6j), 0.3 + 0.6j], lead=1.5)),
    ],
)
def test_kappa_matches_grid_oracle(f, g):
    assert kappa_of(f, g) == pytest.approx(kappa_grid(f, g), rel=1e-9)


def test_kappa_ignores_roots_at_the_origin():
    # a root at 0 contributes the factor z, unimodular on the circle
    f = poly_from_roots([0.5, 0.2j], lead=3.0)
    for k in (1, 2, 3):
        assert kappa_of(poly_from_roots([0.0] * k + [0.5, 0.2j], lead=3.0), f) == 1.0


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
