"""Trigonometric polynomials and their square-law measurement.

A signal here is a finite Fourier sum on one period,

    y(t) = sum_{k=-m..m} b_k exp(2 pi i k t / T),

held as the coefficient vector b in symmetric index order. Square-law
detection discards the phase and keeps s(t) = |y(t)|^2, whose Fourier
coefficients are the (Hermitian) autocorrelation of b. Shifting the
index range onto ascending powers of z turns either sequence into an
ordinary polynomial, its lift, whose ascending coefficients are b_{-m..m}
(degree 2m) or c_{-2m..2m} (degree 4m). All root-based analysis happens
on the lift, and root finding and the magnitude deciders take it as that
ascending coefficient array: TrigPoly.coeffs or AutocorrSeq.coeffs as is.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NegativeIntensity, NotAnAutocorrelation


def _as_complex_vector(values, name):
    arr = np.array(values, dtype=complex)
    if arr.ndim != 1:
        raise DomainError("%s must be a 1-d sequence" % name)
    return arr


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """A truncated Fourier series of harmonic order m.

    Parameters
    ----------
    m : int
        Highest harmonic index, >= 0.
    coeffs : array_like of complex, length 2m+1
        Coefficients b_k ordered k = -m..m.
    period : float, optional
        Length of one period in seconds, > 0. It labels the time axis and
        never enters the coefficient algebra.
    """

    m: int
    coeffs: np.ndarray
    period: float = 1.0

    def __post_init__(self):
        m = int(self.m)
        if m < 0:
            raise DomainError("harmonic order must be >= 0")
        coeffs = _as_complex_vector(self.coeffs, "coeffs")
        if len(coeffs) != 2 * m + 1:
            raise DomainError(
                "expected %d coefficients for m=%d, got %d"
                % (2 * m + 1, m, len(coeffs))
            )
        period = float(self.period)
        if not period > 0:
            raise DomainError("period must be positive")
        coeffs.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "period", period)

    @property
    def energy(self):
        """Mean of |y(t)|^2 over one period, equal to sum |b_k|^2."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return (
            self.m == other.m
            and self.period == other.period
            and np.array_equal(self.coeffs, other.coeffs)
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class AutocorrSeq:
    """Hermitian coefficient sequence of a square-law measurement.

    coeffs holds c_k for k = -2m..2m. Construction checks c_{-k} = conj(c_k)
    to a small tolerance, then symmetrizes exactly so the stored sequence
    satisfies the identity bit for bit, and requires c_0 real and >= 0.
    A sequence that fails either check raises NotAnAutocorrelation.
    """

    m: int
    coeffs: np.ndarray
    period: float = 1.0

    def __post_init__(self):
        m = int(self.m)
        if m < 0:
            raise DomainError("harmonic order must be >= 0")
        coeffs = _as_complex_vector(self.coeffs, "coeffs")
        if len(coeffs) != 4 * m + 1:
            raise DomainError(
                "expected %d coefficients for m=%d, got %d"
                % (4 * m + 1, m, len(coeffs))
            )
        period = float(self.period)
        if not period > 0:
            raise DomainError("period must be positive")
        scale = np.abs(coeffs).max()
        mirror = np.conj(coeffs[::-1])
        if np.abs(coeffs - mirror).max() > 1e-8 * (1.0 + scale):
            raise NotAnAutocorrelation("sequence is not Hermitian-symmetric")
        coeffs = 0.5 * (coeffs + mirror)
        center = coeffs[2 * m].real
        if center < -1e-12 * (1.0 + scale):
            raise NotAnAutocorrelation("c_0 must be nonnegative")
        coeffs[2 * m] = max(center, 0.0)
        coeffs.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "period", period)

    @property
    def c0(self):
        return float(self.coeffs[2 * self.m].real)

    def __eq__(self, other):
        if not isinstance(other, AutocorrSeq):
            return NotImplemented
        return (
            self.m == other.m
            and self.period == other.period
            and np.array_equal(self.coeffs, other.coeffs)
        )

    __hash__ = None


def autocorrelation(p):
    """Square-law measurement coefficients of a signal.

    Returns the sequence c with

        c_k = sum_l b_l * conj(b_{l-k}),

    the sum running over the overlap of the two index windows. The lags
    k >= 0 are _half_lags of the signal, the negative ones their
    conjugates, which keeps the Hermitian symmetry exact rather than
    merely within rounding; AutocorrSeq then applies its clean-up.
    """
    half = _half_lags(p.coeffs[None, :])[0]
    return AutocorrSeq(m=p.m, coeffs=np.concatenate([np.conj(half[:0:-1]), half]),
                       period=p.period)


def _half_lags(b):
    """The lags k = 0..2m of a batch of signals, the one batched lag kernel.

    b is a (K, 2m+1) array of coefficient rows; column k of the (K, 2m+1)
    result is c_k = sum_l b_l conj(b_{l-k}), one stacked dot product over
    all rows per lag, and c_0 is max(Re c_0, 0). Row i is bit for bit the
    lags k >= 0 autocorrelation() gives for row i, up to the signs of zero
    parts, except that a part of 2^1023 or more in magnitude stays finite
    here, where AutocorrSeq's clean-up doubles it to inf. Where rows are
    only compared, this half carries all of the measurement, since
    |conj(a) - conj(b)| == |a - b| bit for bit.
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[1] % 2 == 0:
        raise DomainError("expected a (K, 2m+1) array of coefficient rows")
    width = b.shape[1]
    c = np.empty((len(b), width), dtype=complex)
    conj = np.conj(b)
    for k in range(width):
        c[:, k] = np.matmul(b[:, None, k:], conj[:, : width - k, None])[:, 0, 0]
    # an Im c_0 that is not finite (only an overflowed row has one) makes
    # c_0 NaN, as the clean-up of the full row does
    c[:, 0] = np.maximum(c[:, 0].real + 0.0 * c[:, 0].imag, 0.0)
    return c


def screen_intensity(s):
    """Reject a measurement whose synthesized intensity dips negative.

    Synthesizes s(t) at t = jT/N, j < N = max(64, 16(2m+1)), keeping the
    real part of each Fourier sum, and raises NegativeIntensity when a
    sample falls below -1e-9 (1 + c_0), which no square-law measurement
    reaches beyond rounding.
    """
    N = max(64, 16 * (2 * s.m + 1))
    k = np.arange(-2 * s.m, 2 * s.m + 1)
    t = np.arange(N) / N
    low = (np.exp(2j * np.pi * np.outer(t, k)) @ s.coeffs).real.min()
    if low < -1e-9 * (1.0 + s.c0):
        raise NegativeIntensity("synthesized intensity reaches %.6g" % low)
