"""Trig polynomials, autocorrelation, and the polynomial lifts."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sldlab import (
    AutocorrSeq,
    CoeffPoly,
    TrigPoly,
    autocorr_lift,
    autocorrelation,
    bundled_constellation,
    errors,
    intensity_samples,
    lift,
    pair_reciprocal,
)

from sldlab import roots
from sldlab.signals import _half_lags, screen_intensity

from conftest import roots_at, trig_polys
from oracles import (
    autocorr_dot,
    autocorr_loops,
    eval_series,
    intensity_series,
    poly_powersum,
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


def test_intensity_is_squared_magnitude():
    # 2 + 2 cos(2 pi 0.3), worked by hand and by the series oracle, read at
    # t = 3/10 off the lags of the measurement
    p = TrigPoly(m=1, coeffs=[0, 1, 1])
    got = intensity_samples(autocorrelation(p), 10)[3]
    assert got == pytest.approx(1.381966011250105, abs=1e-12)
    assert got == pytest.approx(intensity_series([0, 1, 1], 1, 0.3))
    q = TrigPoly(m=1, coeffs=[1, 2j, -1])
    assert intensity_samples(autocorrelation(q), 8)[1] == pytest.approx(0.34314575050762, abs=1e-11)


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
def test_half_lags_match_per_signal_bitwise():
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
    # each batch row, mirrored into its measurement, is the single signal's
    for rows in batches:
        m = (rows.shape[1] - 1) // 2
        for row, half in zip(rows, _half_lags(rows)):
            c = AutocorrSeq(m=m, coeffs=np.concatenate([np.conj(half[:0:-1]), half])).coeffs
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
    direct = intensity_series(p.coeffs, p.m, t, p.period)
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


def test_lift_roundtrip():
    p = TrigPoly(m=2, coeffs=[1, 2, 3, 4, 5])
    f = lift(p)
    assert isinstance(f, CoeffPoly)
    assert f.n == 4
    assert np.array_equal(f.coeffs, p.coeffs)
    assert TrigPoly(m=2, coeffs=f.coeffs) == p


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


@given(trig_polys(), st.floats(0.0, 1.0))
def test_lift_on_the_circle_is_the_signal_times_z_to_the_m(p, t):
    """P(z) = sum_k b_k z^(k+m) is z^m y(t) at z = exp(2 pi i t)."""
    z = complex(np.cos(2 * np.pi * t), np.sin(2 * np.pi * t))
    got = poly_powersum(lift(p).coeffs, z)
    want = z**p.m * eval_series(p.coeffs, p.m, t)
    assert abs(got - want) <= 1e-9 * (1 + np.abs(p.coeffs).sum())


@given(trig_polys(), st.floats(0.0, 1.0))
def test_autocorr_lift_on_the_circle_is_the_intensity_times_z_to_the_2m(p, t):
    """Q(z) = sum_k c_k z^(k+2m) is z^(2m) |y(t)|^2 at z = exp(2 pi i t)."""
    z = complex(np.cos(2 * np.pi * t), np.sin(2 * np.pi * t))
    got = poly_powersum(autocorr_lift(autocorrelation(p)).coeffs, z)
    want = z ** (2 * p.m) * intensity_series(p.coeffs, p.m, t)
    assert abs(got - want) <= 1e-9 * (1 + np.abs(p.coeffs).sum()) ** 2


@given(trig_polys(max_m=2))
def test_autocorr_lift_roots_pair_up(p):
    Q = autocorr_lift(autocorrelation(p))
    (r,) = roots_at([Q], 1e-4)
    # a per-example context, since hypothesis reruns the body
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_MATCH_TOL", 1e-3)
        table = pair_reciprocal(r)
    for _, _, k_inner, k_outer in table.orbits:
        assert k_inner == k_outer
    for _, k in table.circle:
        assert k % 2 == 0


def test_sample_grid_matches_eval():
    # sample j sits at t = j/N periods, whatever the period
    p = TrigPoly(m=1, coeffs=[0.5, -1j, 2], period=2.5)
    vals = intensity_samples(autocorrelation(p), 16)
    assert vals.shape == (16,)
    want = [intensity_series(p.coeffs, 1, j * p.period / 16, p.period) for j in range(16)]
    assert np.allclose(vals, want, rtol=1e-12, atol=1e-12)
    with pytest.raises(errors.DomainError):
        intensity_samples(autocorrelation(p), 0)


@given(trig_polys(), st.integers(1, 40))
def test_eval_property(p, N):
    """Each grid sample is |y|^2 synthesized term by term at its point."""
    vals = intensity_samples(autocorrelation(p), N)
    for j, got in enumerate(vals):
        want = intensity_series(p.coeffs, p.m, j / N)
        assert abs(got - want) <= 1e-9 * (1 + want)


def _dft_lags(samples, m):
    """Lags -2m..2m of N uniform intensity samples, by numpy's FFT."""
    return np.fft.fft(samples)[np.arange(-2 * m, 2 * m + 1)] / len(samples)


def test_intensity_samples_and_inversion():
    p = TrigPoly(m=2, coeffs=[0.3, 1j, 0.7, -0.2, 1])
    c = autocorrelation(p)
    s = intensity_samples(c, 32)
    assert s.dtype == np.float64
    assert np.abs(_dft_lags(s, 2) - c.coeffs).max() <= 1e-10 * c.c0
    # 8 < 4m + 1 samples alias lag 4 onto lag -4
    assert np.abs(_dft_lags(s[::4], 2) - c.coeffs).max() > 0.1


def test_screen_intensity():
    # a measurement passes the screen and leaves nothing behind
    c = autocorrelation(TrigPoly(m=2, coeffs=[0.3, 1j, 0.7, -0.2, 1]))
    tone = AutocorrSeq(m=5, coeffs=np.eye(1, 21, 10)[0])
    for s in (c, tone):
        assert screen_intensity(s) is None
    # an intensity 1 + 2 cos(2 pi t) dips to -1 and raises
    with pytest.raises(errors.NegativeIntensity, match="reaches -1"):
        screen_intensity(AutocorrSeq(m=1, coeffs=[0, 1, 1, 1, 0]))


@given(trig_polys(max_m=2), st.integers(0, 40))
def test_sampling_theorem_boundary(p, extra):
    """Any grid of at least 4m+1 points recovers the lag sequence."""
    c = autocorrelation(p)
    N = 4 * p.m + 1 + extra
    back = _dft_lags(intensity_samples(c, N), p.m)
    assert np.abs(back - c.coeffs).max() <= 1e-9 * (1 + c.c0)


def test_coeffpoly_degrees():
    # the array holds n + 1 coefficients: a zero tail is trimmed, a short one padded
    assert CoeffPoly(coeffs=[1, 2, 0, 0], n=2).coeffs.tolist() == [1, 2, 0]
    assert CoeffPoly(coeffs=[1], n=2).coeffs.tolist() == [1, 0, 0]
    g = CoeffPoly(coeffs=[1, 2, 1e-15], n=2)
    assert not g.is_zero()
    assert CoeffPoly(coeffs=[0, 0], n=1).is_zero()
    with pytest.raises(errors.DomainError):
        CoeffPoly(coeffs=[1, 2, 3], n=1)
