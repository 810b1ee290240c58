"""Trig polynomials, autocorrelation, the polynomial lifts and the intensity screen."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sldlab import (
    AutocorrSeq,
    TrigPoly,
    autocorrelation,
    bundled_constellation,
    errors,
    factor_sld,
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


def test_autocorr_lift_is_product_with_reflection():
    """The lag lift factors as P(z) times its conjugate reflection."""
    p = TrigPoly(m=1, coeffs=[1, 2j, -1])
    P = p.coeffs
    Pstar = np.conj(P[::-1])
    want = np.convolve(P, Pstar)
    Q = autocorrelation(p).coeffs
    assert np.abs(Q - want).max() <= 1e-10 * np.abs(want).max()
    # the zero measurement passes the screen, but its lift has nothing to factor
    for m in (0, 1):
        with pytest.raises(errors.ZeroInput, match="^zero measurement has no lift worth factoring$"):
            factor_sld(AutocorrSeq(m=m, coeffs=np.zeros(4 * m + 1)))


@given(trig_polys(), st.floats(0.0, 1.0))
def test_lift_on_the_circle_is_the_signal_times_z_to_the_m(p, t):
    """P(z) = sum_k b_k z^(k+m) is z^m y(t) at z = exp(2 pi i t)."""
    z = complex(np.cos(2 * np.pi * t), np.sin(2 * np.pi * t))
    got = poly_powersum(p.coeffs, z)
    want = z**p.m * eval_series(p.coeffs, p.m, t)
    assert abs(got - want) <= 1e-9 * (1 + np.abs(p.coeffs).sum())


@given(trig_polys(), st.floats(0.0, 1.0))
def test_autocorr_lift_on_the_circle_is_the_intensity_times_z_to_the_2m(p, t):
    """Q(z) = sum_k c_k z^(k+2m) is z^(2m) |y(t)|^2 at z = exp(2 pi i t)."""
    z = complex(np.cos(2 * np.pi * t), np.sin(2 * np.pi * t))
    got = poly_powersum(autocorrelation(p).coeffs, z)
    want = z ** (2 * p.m) * intensity_series(p.coeffs, p.m, t)
    assert abs(got - want) <= 1e-9 * (1 + np.abs(p.coeffs).sum()) ** 2


@given(trig_polys(max_m=2))
def test_autocorr_lift_roots_pair_up(p):
    (r,) = roots_at([autocorrelation(p).coeffs], 1e-4)
    # a per-example context, since hypothesis reruns the body
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_MATCH_TOL", 1e-3)
        table = pair_reciprocal(r)
    for _, _, k_inner, k_outer in table.orbits:
        assert k_inner == k_outer
    for _, k in table.circle:
        assert k % 2 == 0


def _lowered(p, drop):
    """The measurement of p with c_0 lowered by drop: its intensity minus drop."""
    c = autocorrelation(p).coeffs.copy()
    c[2 * p.m] -= drop
    return AutocorrSeq(m=p.m, coeffs=c)


def _grid_min(p):
    """min |y|^2 over the screen's grid t = jT/N, N = max(64, 16(2m+1)),
    synthesized term by term."""
    N = max(64, 16 * (2 * p.m + 1))
    return min(intensity_series(p.coeffs, p.m, j * p.period / N, p.period) for j in range(N))


def _reported(s):
    with pytest.raises(errors.NegativeIntensity, match="^synthesized intensity reaches ") as info:
        screen_intensity(s)
    return float(str(info.value).rsplit(" ", 1)[1])


# m = 1 samples 64 points and m = 3 112; on 48, 63 or 65 points, or on 64,
# 111 or 113, the minima below differ from these in their fourth digit
@pytest.mark.parametrize("coeffs", [[1, 0.4j, -0.7 + 0.5j],
                                    [0.5, -1j, 2, 0.3, 1j, -0.7, 0.2 + 0.4j]])
def test_sample_grid_matches_eval(coeffs):
    # a sequence whose intensity dips below -1e-9 (1 + c_0) at a grid point
    # is refused, with that grid minimum in the message; sample j sits at
    # t = j/N periods, whatever the period
    p = TrigPoly(m=(len(coeffs) - 1) // 2, coeffs=coeffs, period=2.5)
    low = _grid_min(p)
    for drop in (p.energy, (p.energy + low) / 2):
        assert _reported(_lowered(p, drop)) == pytest.approx(low - drop, rel=5e-6)
    # a dip 1% inside the tolerance passes, one 1% beyond it does not
    tol = 1e-9 * (1 + p.energy - low)
    assert screen_intensity(_lowered(p, low + 0.99 * tol)) is None
    assert _reported(_lowered(p, low + 1.01 * tol)) == pytest.approx(-1.01 * tol, rel=1e-4)


@given(trig_polys())
def test_eval_property(p):
    """The screen's minimum is that of |y|^2 synthesized term by term."""
    s = _lowered(p, p.energy)
    want = _grid_min(p) - p.energy
    if want < -2e-9:
        assert abs(_reported(s) - want) <= 1e-5 * abs(want) + 1e-9 * (1 + p.energy)
    elif want > -0.5e-9:
        assert screen_intensity(s) is None


def test_screen_intensity():
    # a measurement passes the screen and leaves nothing behind
    c = autocorrelation(TrigPoly(m=2, coeffs=[0.3, 1j, 0.7, -0.2, 1]))
    tone = AutocorrSeq(m=5, coeffs=np.eye(1, 21, 10)[0])
    for s in (c, tone):
        assert screen_intensity(s) is None
    # an intensity 1 + 2 cos(2 pi t) dips to -1 and raises
    with pytest.raises(errors.NegativeIntensity, match="reaches -1"):
        screen_intensity(AutocorrSeq(m=1, coeffs=[0, 1, 1, 1, 0]))

