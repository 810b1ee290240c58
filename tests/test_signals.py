"""Trig polynomials, autocorrelation, and the polynomial lifts."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sldlab import (
    AutocorrSeq,
    CoeffPoly,
    TrigPoly,
    autocorr_from_samples,
    autocorr_lift,
    autocorrelation,
    bundled_constellation,
    errors,
    eval_intensity,
    eval_time,
    intensity_samples,
    lift,
    pair_reciprocal,
    find_roots,
    sample_grid,
    unlift,
)

from sldlab.signals import autocorrelation_rows, screen_intensity

from conftest import complex_vectors, trig_polys
from oracles import (
    autocorr_dot,
    autocorr_loops,
    eval_series,
    intensity_series,
)


def test_trigpoly_basics():
    p = TrigPoly(m=1, coeffs=[0, 1, 1])
    assert p.energy == 2.0
    assert p == TrigPoly(m=1, coeffs=[0, 1, 1])
    assert p != TrigPoly(m=1, coeffs=[1, 1, 0])
    with pytest.raises(errors.DomainError):
        TrigPoly(m=1, coeffs=[1, 2])
    with pytest.raises(errors.DomainError):
        TrigPoly(m=-1, coeffs=[1])


def test_trigpoly_coeffs_are_frozen():
    p = TrigPoly(m=1, coeffs=[0, 1, 1])
    with pytest.raises(ValueError):
        p.coeffs[0] = 5.0


def test_eval_matches_direct_synthesis():
    p = TrigPoly(m=1, coeffs=[1, 2j, -1])
    for t in (0.0, 0.125, 0.3, 0.77):
        assert eval_time(p, t) == pytest.approx(eval_series([1, 2j, -1], 1, t), abs=1e-12)


@given(trig_polys(), st.floats(0.0, 1.0))
def test_eval_property(p, t):
    want = eval_series(p.coeffs, p.m, t, p.period)
    assert abs(eval_time(p, t) - want) <= 1e-9 * (1 + abs(want))


def test_intensity_is_squared_magnitude():
    p = TrigPoly(m=1, coeffs=[0, 1, 1])
    # 2 + 2 cos(2 pi 0.3), worked by hand and by the series oracle
    assert eval_intensity(p, 0.3) == pytest.approx(1.381966011250105, abs=1e-12)
    assert eval_intensity(p, 0.3) == pytest.approx(intensity_series([0, 1, 1], 1, 0.3))
    q = TrigPoly(m=1, coeffs=[1, 2j, -1])
    assert eval_intensity(q, 0.125) == pytest.approx(0.34314575050762, abs=1e-11)


def test_autocorr_fixture_values():
    assert np.allclose(
        autocorrelation(TrigPoly(m=1, coeffs=[0, 1, 1])).coeffs,
        [0, 1, 2, 1, 0],
    )
    assert np.allclose(
        autocorrelation(TrigPoly(m=1, coeffs=[1, 2j, -1])).coeffs,
        [-1, -4j, 6, 4j, -1],
    )


@given(trig_polys())
def test_autocorr_matches_loop_oracle(p):
    got = autocorrelation(p).coeffs
    want = autocorr_loops(p.coeffs)
    assert np.abs(got - want).max() <= 1e-10 * (1 + np.abs(want).max())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_autocorrelation_rows_match_per_signal_bitwise():
    rng = np.random.default_rng(4242)
    batches = []
    for m in range(9):
        rows = rng.standard_normal((20, 2 * m + 1)) + 1j * rng.standard_normal((20, 2 * m + 1))
        batches.append(rows * 10.0 ** rng.uniform(-3, 3, (20, 1)))
    batches += [np.stack([s.coeffs for s in bundled_constellation(m).signals])
                for m in range(1, 7)]
    # energies near 2^1023, where the clean-up's doubling overflows
    for m in range(3):
        rows = rng.standard_normal((20, 2 * m + 1)) + 1j * rng.standard_normal((20, 2 * m + 1))
        batches.append(rows * np.sqrt(2.0**1023 / np.sum(np.abs(rows) ** 2, axis=1))[:, None]
                       * rng.uniform(0.99, 1.01, (20, 1)))
    for rows in batches:
        got = autocorrelation_rows(rows)
        m = (rows.shape[1] - 1) // 2
        for row, c in zip(rows, got):
            assert c.tobytes() == autocorrelation(TrigPoly(m=m, coeffs=row)).coeffs.tobytes()
            assert c.tobytes() == autocorr_dot(row).tobytes()


@given(trig_polys())
def test_autocorr_symmetry_and_bounds(p):
    c = autocorrelation(p)
    n = len(c.coeffs)
    assert np.abs(c.coeffs - np.conj(c.coeffs[::-1])).max() == 0.0
    assert c.c0 == pytest.approx(p.energy)
    assert c.c0 >= 0
    assert np.abs(c.coeffs).max() <= c.c0 + 1e-12 * (1 + c.c0)
    assert n == 4 * p.m + 1


@given(trig_polys(), st.floats(0.05, 0.95))
def test_intensity_equals_autocorr_series(p, t):
    """The measured waveform is the Fourier series of the lag sequence."""
    c = autocorrelation(p)
    direct = eval_intensity(p, t)
    via_lags = eval_series(c.coeffs, 2 * p.m, t, p.period).real
    assert abs(direct - via_lags) <= 1e-9 * (1 + abs(direct))


def test_autocorrseq_validation():
    AutocorrSeq(m=1, coeffs=[0, 1, 2, 1, 0])
    with pytest.raises(errors.DomainError):
        AutocorrSeq(m=1, coeffs=[0, 1, 2, 1, 0.5])  # breaks mirror symmetry
    with pytest.raises(errors.DomainError):
        AutocorrSeq(m=1, coeffs=[0, 1, 2, 1])
    with pytest.raises(errors.DomainError):
        AutocorrSeq(m=1, coeffs=[0, 1, -2, 1, 0])  # negative total power


def test_autocorrseq_symmetrizes_exactly():
    eps = 3e-10
    c = AutocorrSeq(m=1, coeffs=[eps, 1 + eps * 1j, 2, 1, 0])
    assert np.abs(c.coeffs - np.conj(c.coeffs[::-1])).max() == 0.0
    assert c.coeffs[2].imag == 0.0


def test_lift_unlift_roundtrip():
    p = TrigPoly(m=2, coeffs=[1, 2, 3, 4, 5])
    f = lift(p)
    assert isinstance(f, CoeffPoly)
    assert f.n == 4
    assert np.array_equal(f.coeffs, p.coeffs)
    assert unlift(f, m=2) == p
    with pytest.raises(errors.DegreeTooLarge):
        unlift(CoeffPoly(coeffs=[1, 0, 0, 1], n=3), m=1)


def test_autocorr_lift_is_product_with_reflection():
    """The lag lift factors as P(z) times its conjugate reflection."""
    p = TrigPoly(m=1, coeffs=[1, 2j, -1])
    P = lift(p).coeffs
    Pstar = np.conj(P[::-1])
    want = np.convolve(P, Pstar)
    Q = autocorr_lift(autocorrelation(p))
    assert np.abs(Q.coeffs - want).max() <= 1e-10 * np.abs(want).max()
    with pytest.raises(errors.ZeroInput):
        autocorr_lift(AutocorrSeq(m=0, coeffs=[0.0]))


@given(trig_polys(max_m=2))
def test_autocorr_lift_roots_pair_up(p):
    Q = autocorr_lift(autocorrelation(p))
    r = find_roots(Q, cluster_radius=1e-4)
    orbits, on_circle, origin = pair_reciprocal(r, match_tol=1e-3)
    for orb in orbits:
        assert orb.mult_inner == orb.mult_outer
    for root in on_circle:
        assert root.multiplicity % 2 == 0


def test_sample_grid_matches_eval():
    p = TrigPoly(m=1, coeffs=[0.5, -1j, 2])
    vals = sample_grid(p, 16)
    assert len(vals) == 16
    t = np.arange(16) * (p.period / 16)
    assert np.allclose(vals, [eval_time(p, ti) for ti in t])
    with pytest.raises(errors.DomainError):
        sample_grid(p, 0)


def test_intensity_samples_and_inversion():
    p = TrigPoly(m=2, coeffs=[0.3, 1j, 0.7, -0.2, 1])
    c = autocorrelation(p)
    s = intensity_samples(c, 32)
    assert s.dtype == np.float64
    back = autocorr_from_samples(s, m=2, period=c.period)
    assert np.abs(back.coeffs - c.coeffs).max() <= 1e-10 * c.c0
    with pytest.raises(errors.DegenerateSampling):
        autocorr_from_samples(s[: 4 * 2], m=2, period=c.period)


def test_screen_intensity():
    c = autocorrelation(TrigPoly(m=2, coeffs=[0.3, 1j, 0.7, -0.2, 1]))
    assert np.array_equal(screen_intensity(c), intensity_samples(c, 80))
    tone = AutocorrSeq(m=5, coeffs=np.eye(1, 21, 10)[0])
    assert np.array_equal(screen_intensity(tone), intensity_samples(tone, 176))
    with pytest.raises(errors.NegativeIntensity):
        screen_intensity(AutocorrSeq(m=1, coeffs=[0, 1, 1, 1, 0]))


@given(trig_polys(max_m=2), st.integers(0, 40))
def test_sampling_theorem_boundary(p, extra):
    """Any grid of at least 4m+1 points recovers the lag sequence."""
    c = autocorrelation(p)
    N = 4 * p.m + 1 + extra
    back = autocorr_from_samples(intensity_samples(c, N), m=p.m, period=c.period)
    assert np.abs(back.coeffs - c.coeffs).max() <= 1e-9 * (1 + c.c0)


def test_coeffpoly_degrees():
    f = CoeffPoly(coeffs=[1, 2, 0], n=2)
    assert f.degree == 1
    assert f.effective_degree() == 1
    g = CoeffPoly(coeffs=[1, 2, 1e-15], n=2)
    assert g.degree == 2
    assert g.effective_degree() == 1
    assert not g.is_zero()
    assert CoeffPoly(coeffs=[0, 0], n=1).is_zero()
    with pytest.raises(errors.DomainError):
        CoeffPoly(coeffs=[1, 2, 3], n=1)


@given(complex_vectors(4), st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False))
def test_coeffpoly_eval_matches_powersum(coeffs, z):
    from oracles import poly_powersum

    f = CoeffPoly(coeffs=coeffs, n=3)
    want = poly_powersum(coeffs, z)
    assert abs(f(z) - want) <= 1e-9 * (1 + abs(want))
