"""Trigonometric polynomials and their square-law measurement.

A signal here is a finite Fourier sum on one period,

    y(t) = sum_{k=-m..m} b_k exp(2 pi i k t / T),

held as the coefficient vector b in symmetric index order. Square-law
detection discards the phase and keeps s(t) = |y(t)|^2, whose Fourier
coefficients are the (Hermitian) autocorrelation of b. Shifting the
index range onto ascending powers of z turns either sequence into an
ordinary polynomial; all root-based analysis happens on that lift.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegreeTooLarge,
    DegenerateSampling,
    DomainError,
    NegativeIntensity,
    NotAnAutocorrelation,
    ZeroInput,
)


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
class CoeffPoly:
    """A complex polynomial in ascending-power coefficient form.

    coeffs[j] multiplies z^j. The array always has length n+1 where n is
    the degree bound; entries above the actual degree are zero. The zero
    polynomial is representable, individual operations reject it where
    they need a nonzero input.
    """

    coeffs: np.ndarray
    n: int = None

    def __post_init__(self):
        coeffs = _as_complex_vector(self.coeffs, "coeffs")
        n = len(coeffs) - 1 if self.n is None else int(self.n)
        if n < 0:
            raise DomainError("degree bound must be >= 0")
        if len(coeffs) > n + 1:
            tail = coeffs[n + 1 :]
            if np.any(tail != 0):
                raise DomainError("coefficients exceed the degree bound n=%d" % n)
            coeffs = coeffs[: n + 1]
        elif len(coeffs) < n + 1:
            coeffs = np.concatenate([coeffs, np.zeros(n + 1 - len(coeffs), dtype=complex)])
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "n", n)

    @property
    def degree(self):
        """Index of the highest exactly-nonzero coefficient (-1 for the zero poly)."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if len(nz) else -1

    def effective_degree(self, rel=1e-12):
        """Degree ignoring coefficients below rel * max|coeff| (numerical tail)."""
        mags = np.abs(self.coeffs)
        top = mags.max()
        if top == 0:
            return -1
        nz = np.nonzero(mags > rel * top)[0]
        return int(nz[-1]) if len(nz) else -1

    def is_zero(self):
        return bool(np.all(self.coeffs == 0))

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            out = out * z + c
        return complex(out) if out.ndim == 0 else out

    def __eq__(self, other):
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.coeffs, other.coeffs)

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


def eval_time(p, t):
    """Evaluate the Fourier sum at time(s) t.

    t may be a scalar or an array; it is reduced modulo the period by the
    exponential itself, no explicit wrap needed.
    """
    t = np.asarray(t, dtype=float)
    k = np.arange(-p.m, p.m + 1)
    phases = np.exp(2j * np.pi * np.multiply.outer(t, k) / p.period)
    vals = phases @ p.coeffs
    return complex(vals) if vals.ndim == 0 else vals


def eval_intensity(p, t):
    """|y(t)|^2 at time(s) t."""
    vals = eval_time(p, t)
    out = np.abs(np.asarray(vals)) ** 2
    return float(out) if out.ndim == 0 else out


def sample_grid(p, N):
    """Values of y on the uniform grid t_j = j * period / N, j = 0..N-1."""
    N = int(N)
    if N < 1:
        raise DomainError("need at least one sample point")
    return eval_time(p, np.arange(N) * (p.period / N))


def autocorrelation(p):
    """Square-law measurement coefficients of a signal.

    Returns the sequence c with

        c_k = sum_l b_l * conj(b_{l-k}),

    the sum running over the overlap of the two index windows. Negative
    indices are filled by mirroring conj(c_k), which keeps the Hermitian
    symmetry exact rather than merely within rounding.
    """
    c = autocorrelation_rows(p.coeffs[None, :])[0]
    return AutocorrSeq(m=p.m, coeffs=c, period=p.period)


def autocorrelation_rows(b):
    """Square-law measurement coefficients of a batch of signals.

    b is a (K, 2m+1) array of coefficient rows; row i of the (K, 4m+1)
    result is the sequence autocorrelation() gives for row i, ordered
    k = -2m..2m, bit for bit. The lags k >= 0 are _half_lags(b); the
    negative ones are their conjugates, and the whole row then gets the
    Hermitian clean-up AutocorrSeq applies on construction, which also
    fixes the signs of zero parts.
    """
    half = _half_lags(b)
    top = half.shape[1] - 1
    c = np.empty((len(half), 2 * top + 1), dtype=complex)
    c[:, top:] = half
    c[:, :top] = np.conj(half[:, :0:-1])
    c += np.conj(c[:, ::-1])
    c *= 0.5
    c[:, top] = np.maximum(c[:, top].real, 0.0)
    return c


def _half_lags(b):
    """The lags k = 0..2m of a batch of signals: the non-negative half of
    each Hermitian row of autocorrelation_rows.

    b is a (K, 2m+1) array of coefficient rows; column k of the (K, 2m+1)
    result is c_k = sum_l b_l conj(b_{l-k}), one stacked dot product over
    all rows per lag, and c_0 is max(Re c_0, 0). Where rows are only
    compared, this half carries all of the measurement, since
    |conj(a) - conj(b)| == |a - b| bit for bit. It equals the half of the
    full row up to the signs of zero parts, except that a part of 2^1023
    or more in magnitude stays finite here, where the clean-up's doubling
    there makes it inf.
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


def lift(p):
    """Polynomial with coefficient of z^{k+m} equal to b_k (degree bound 2m)."""
    return CoeffPoly(coeffs=p.coeffs, n=2 * p.m)


def unlift(f, m):
    """Inverse of lift: read coefficients of z^{k+m} back into b_k.

    Requires the actual degree of f to be at most 2m.
    """
    m = int(m)
    if m < 0:
        raise DomainError("harmonic order must be >= 0")
    if f.degree > 2 * m:
        raise DegreeTooLarge(
            "degree %d does not fit harmonic order m=%d" % (f.degree, m)
        )
    b = np.zeros(2 * m + 1, dtype=complex)
    take = min(len(f.coeffs), 2 * m + 1)
    b[:take] = f.coeffs[:take]
    return TrigPoly(m=m, coeffs=b)


def autocorr_lift(s):
    """Lift of the measurement sequence to a degree-4m polynomial.

    The result Q(z) = sum_k c_k z^{k+2m} inherits the Hermitian symmetry of
    c as a conjugate-reciprocal symmetry: its root multiset is invariant
    under reflection across the unit circle.
    """
    if np.all(s.coeffs == 0):
        raise ZeroInput("zero measurement has no lift worth factoring")
    return CoeffPoly(coeffs=s.coeffs, n=4 * s.m)


def intensity_samples(s, N):
    """Synthesize s(t) on the uniform N-point grid from its coefficients.

    The imaginary residue of the Fourier sum is discarded; it is at
    rounding level because the sequence is Hermitian by construction.
    """
    N = int(N)
    if N < 1:
        raise DomainError("need at least one sample point")
    k = np.arange(-2 * s.m, 2 * s.m + 1)
    t = np.arange(N) / N
    vals = np.exp(2j * np.pi * np.outer(t, k)) @ s.coeffs
    return vals.real.copy()


def screen_intensity(s):
    """Intensity samples of a measurement, rejected when they dip negative.

    Synthesizes s(t) on max(64, 16(2m+1)) points and raises
    NegativeIntensity when a sample falls below -1e-9 (1 + c_0), which no
    square-law measurement reaches beyond rounding. Returns the samples.
    """
    samples = intensity_samples(s, max(64, 16 * (2 * s.m + 1)))
    if samples.min() < -1e-9 * (1.0 + s.c0):
        raise NegativeIntensity("synthesized intensity reaches %.6g" % samples.min())
    return samples


def autocorr_from_samples(samples, m, period=1.0):
    """Recover the measurement coefficients from uniform intensity samples.

    Needs at least 4m+1 samples per period; below that the harmonics alias
    and the sequence is not identifiable.
    """
    samples = np.asarray(samples, dtype=float)
    N = len(samples)
    if N < 4 * m + 1:
        raise DegenerateSampling(
            "need at least %d samples for order %d, got %d" % (4 * m + 1, m, N)
        )
    j = np.arange(N)
    k = np.arange(-2 * m, 2 * m + 1)
    kernel = np.exp(-2j * np.pi * np.outer(k, j) / N)
    c = kernel @ samples / N
    return AutocorrSeq(m=m, coeffs=c, period=period)
