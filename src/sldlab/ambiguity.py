"""Enumeration of square-law ambiguity classes and spectral factorization.

A square-law detector only sees |y(t)|^2, so any signal whose lift differs
by reflecting roots across the unit circle (with the compensating scale),
by shifting origin powers within the degree budget, or by a global phase
produces the identical measurement. This module enumerates that whole
family from a signal, recovers it from a measured sequence, and certifies
the counting bound 2^(2m+1).

Both directions build their classes through one table: an (inner, outer,
k) triple per reflection orbit and the (unit location, multiplicity) of
each circle root. A signal's orbit splits all of its roots; an orbit of a
measured sequence holds each root of the signal twice, so a signal splits
mult_inner of them. Every row is scaled to energy c_0, which all classes
of one measurement share.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    AsymmetricSpectrum,
    CombinatorialBlowup,
    DegreeTooLarge,
    DomainError,
    InvalidSpec,
    NotAnAutocorrelation,
    ZeroSignal,
)
from .roots import _modulus, find_roots, pair_reciprocal
from .signals import (
    _half_lags,
    AutocorrSeq,
    CoeffPoly,
    TrigPoly,
    autocorr_lift,
    autocorrelation,
    lift,
    screen_intensity,
)

# candidate rows assembled and canonicalized at a time
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class FlipSpec:
    """One member of the ambiguity family of a polynomial.

    orbit_splits assigns each reflection orbit (in the deterministic order
    returned by pair_reciprocal) a target pair (inner multiplicity, outer
    multiplicity) that preserves the orbit total. shift is the origin
    power n_g of the result. Split counts and shift are integers (any
    operator.index type); flip refuses anything else. scale, when given,
    must equal the magnitude ratio |a_g| / |a_f| forced by keeping the
    circle magnitude fixed; left as None it is derived.
    """

    orbit_splits: tuple
    shift: int
    scale: float = None


@dataclass(frozen=True, eq=False)
class ClassSet:
    """Canonical representatives of the ambiguity classes of one measurement.

    coeffs, the only stored form, is a read-only (K, 2m+1) array with one
    class per row (a read-only complex input is kept, any other copied);
    autocorr is the measurement they share. From enumerate_classes and
    factor_sld, row i is flip spec i (orbit splits in itertools.product
    order, then origin shift), scaled to energy c_0, so K is the
    closed-form count (shift_hi + 1) * prod(k_i + 1) over the orbits of
    the one table both build from. residuals holds each row's largest
    autocorrelation deviation from autocorr over c_0 (0.0 when c_0 is 0)
    in a read-only array, computed on construction from the lags k >= 0
    alone (the lags k < 0 are their conjugates); representatives is
    the rows as a tuple of TrigPoly, built on first access.
    """

    coeffs: np.ndarray
    autocorr: AutocorrSeq
    residuals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = np.asarray(self.coeffs, dtype=complex)
        rows = rows.copy() if rows.flags.writeable else rows
        rows.setflags(write=False)
        if rows.ndim != 2 or rows.shape[1] != 2 * self.autocorr.m + 1:
            raise DomainError("expected a (K, 2m+1) array of rows, m = %d" % self.autocorr.m)
        c0 = self.autocorr.c0
        residuals = _deviations(rows, self.autocorr.coeffs) / c0 if c0 > 0 else np.zeros(len(rows))
        residuals.setflags(write=False)
        object.__setattr__(self, "coeffs", rows)
        object.__setattr__(self, "residuals", residuals)

    @property
    def source_m(self):
        return self.autocorr.m

    @property
    def bound(self):
        return 2 ** (2 * self.source_m + 1)

    @property
    def exact_count(self):
        return len(self.coeffs)

    @cached_property
    def representatives(self):
        period = self.autocorr.period
        return tuple(TrigPoly(m=self.source_m, coeffs=row, period=period) for row in self.coeffs)


def _gated(cs, gate, error, message):
    """cs, unless a row's residual exceeds gate or is NaN: then error(message % its deviation)."""
    miss = np.flatnonzero(~(cs.residuals <= gate))
    if len(miss):
        raise error(message % (cs.residuals[miss[0]] * cs.autocorr.c0))
    return cs


def _deviations(rows, target):
    """max_k |autocorrelation(row)_k - target_k| for each row of a 2-D array.

    target is a Hermitian sequence ordered k = -2m..2m, and so is every
    row's, so only the lags k >= 0 are compared: |conj(a) - conj(b)| is
    |a - b| bit for bit. The full row's clean-up doubles each part, which
    overflows at 2^1023; a row with such a part deviates by inf, so every
    gate refuses it. The half lags take _BLOCK_ROWS rows at a time.
    """
    half = target[len(target) // 2 :]
    out = np.empty(len(rows))
    for lo in range(0, len(rows), _BLOCK_ROWS):
        lags = _half_lags(rows[lo : lo + _BLOCK_ROWS])
        dev = np.abs(lags - half).max(axis=1)
        # Cauchy-Schwarz keeps every |c_k| within rounding of c_0, so only a
        # block whose c_0 reaches 2^1022 (or is NaN) can hold such a part
        if not lags[:, 0].real.max() < 2.0**1022:
            dev[np.abs(lags.view(float)).max(axis=1) >= 2.0**1023] = np.inf
        out[lo : lo + len(dev)] = dev
    return out


def canonicalize(p):
    """Phase-normalize a signal so its lowest nonzero coefficient is positive real.

    The pivot is the first coefficient above 1e-12 of the largest modulus.
    The vector turns by minus the pivot's angle unless that angle is within
    1e-12, and the pivot is then pinned to its modulus unless it is already
    positive real. Idempotent: a vector already in canonical form comes
    back unchanged, bit for bit.
    """
    return TrigPoly(m=p.m, coeffs=_canonical_rows(p.coeffs[None, :])[0], period=p.period)


def _canonical_rows(rows):
    """canonicalize() applied to every row of a 2-D complex array at once."""
    mags = np.abs(rows)
    top = mags.max(axis=1)
    if not np.all(top > 0):
        raise ZeroSignal("cannot canonicalize the zero signal")
    idx = np.arange(len(rows))
    j = np.argmax(mags > 1e-12 * top[:, None], axis=1)
    pivot = rows[idx, j]
    phi = np.angle(pivot)
    turn = np.abs(phi) > 1e-12
    out = np.where(turn[:, None], rows * np.exp(-1j * phi)[:, None], rows)
    pin = turn | (pivot.imag != 0.0) | ~(pivot.real > 0.0)
    # Python's abs of each pivot, which np.abs can miss in the last bit
    out[idx[pin], j[pin]] = _modulus(pivot[pin])
    return out


def _monic(roots):
    """Ascending coefficients of prod (z - loc)^k over the (loc, k) pairs of roots.

    Each power is built one linear factor at a time, and the powers are
    then multiplied in order; no pairs give the constant 1.
    """
    out = None
    for loc, k in roots:
        power = np.ones(1, dtype=complex)
        for _ in range(k):
            power = np.convolve(power, np.array([-loc, 1.0 + 0.0j]))
        out = power if out is None else np.convolve(out, power)
    return np.ones(1, dtype=complex) if out is None else out


def flip(f, spec, root_tol=1e-8, circle_band=1e-9):
    """Apply one flip specification to a polynomial.

    Moves roots across the unit circle orbit by orbit, re-seats the origin
    power, and rescales so the magnitude on the circle is untouched. The
    result is magnitude-equivalent to f with ratio exactly one.
    """
    r = find_roots(f, tol=root_tol, circle_band=circle_band)
    orbits, on_circle, origin = pair_reciprocal(r)
    if len(spec.orbit_splits) != len(orbits):
        raise InvalidSpec(
            "expected %d orbit splits, got %d" % (len(orbits), len(spec.orbit_splits))
        )
    shift_hi = f.n - r.degree + origin
    shift = _spec_int(spec.shift)
    if not (0 <= shift <= shift_hi):
        raise InvalidSpec("shift %d outside [0, %d]" % (shift, shift_hi))

    coeffs = np.array([r.leading_coeff], dtype=complex)
    scale = 1.0
    for orbit, split in zip(orbits, spec.orbit_splits):
        inner_t, outer_t = _spec_int(split[0]), _spec_int(split[1])
        if inner_t < 0 or outer_t < 0 or inner_t + outer_t != orbit.total:
            raise InvalidSpec(
                "split %s does not preserve the orbit total %d" % (split, orbit.total)
            )
        coeffs = np.convolve(coeffs, _monic(((orbit.inner, inner_t), (orbit.outer, outer_t))))
        # each root moved outside multiplies by |inner|, keeping the circle magnitude
        scale *= abs(orbit.inner) ** (orbit.mult_inner - inner_t)
    for root in on_circle:
        coeffs = np.convolve(coeffs, _monic(((root.location, root.multiplicity),)))
    # written as not <= so a NaN declared scale conflicts too
    if spec.scale is not None and not abs(spec.scale - scale) <= 1e-9 * max(scale, 1.0):
        raise InvalidSpec(
            "declared scale %.12g conflicts with the forced value %.12g"
            % (spec.scale, scale)
        )
    coeffs = coeffs * scale
    if shift:
        coeffs = np.concatenate([np.zeros(shift, dtype=complex), coeffs])
    return CoeffPoly(coeffs=coeffs, n=f.n)


def _spec_int(value):
    """A shift or split count of a FlipSpec as an int; InvalidSpec unless integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidSpec("flip spec entry %r is not an integer" % (value,)) from None


def _expand(rows, parts):
    """Every row times every part, in itertools.product order.

    rows (K, L) and parts (n, d+1) are ascending polynomials; row i * n + j
    of the (K n, L + d) result is rows[i] convolved with parts[j], built by
    shifted adds.
    """
    K, L = rows.shape
    n, d1 = parts.shape
    out = np.zeros((K, n, L + d1 - 1), dtype=complex)
    for k in range(d1):
        out[:, :, k : k + L] += rows[:, None, :] * parts[None, :, k, None]
    return out.reshape(K * n, -1)


def _classes(orbits, circle, shift_hi, autocorr, cap):
    """The ClassSet of every flip spec, one row per spec, in spec order.

    orbits holds one (inner, outer, k) per reflection orbit: its split j
    puts j of the k roots at inner and the rest at outer, so its part is
    (z - inner)^j (z - outer)^(k - j), j = 0..k. circle holds the
    (unit location, multiplicity) of the circle roots, which no spec
    moves. A spec picks one split per orbit, in itertools.product order,
    and then an origin shift 0..shift_hi. Its row is the circle roots'
    polynomial times the picked parts, placed at the shift, canonicalized
    and scaled to the energy c_0 of autocorr, which every class of one
    measurement shares. The row count is the closed-form count
    (shift_hi + 1) * prod(k_i + 1). Candidates are built _BLOCK_ROWS at a
    time, one block per choice of the leading orbits, straight into the
    one result array.
    """
    table = [
        np.stack([_monic(((inner, j), (outer, k - j))) for j in range(k + 1)])
        for inner, outer, k in orbits
    ]
    counts = [len(parts) for parts in table]
    total_specs = (shift_hi + 1) * math.prod(counts)
    if total_specs > cap:
        raise CombinatorialBlowup(
            "%d candidate specs exceed the cap of %d" % (total_specs, cap)
        )
    m = autocorr.m
    width = 2 * m + 1
    circle_coeffs = _monic(circle)
    degree = len(circle_coeffs) - 1 + sum(parts.shape[1] - 1 for parts in table)
    if degree + shift_hi > 2 * m:
        raise DegreeTooLarge(
            "degree %d does not fit harmonic order m=%d" % (degree + shift_hi, m)
        )

    # the trailing orbits whose splits fit in one block form the block;
    # the leading ones are expanded once and walked choice by choice
    split, size = len(table), 1
    per_block = max(1, _BLOCK_ROWS // (shift_hi + 1))
    while split and size * counts[split - 1] <= per_block:
        split -= 1
        size *= counts[split]
    head = circle_coeffs[None, :]
    for parts in table[:split]:
        head = _expand(head, parts)
    tail = np.ones((1, 1), dtype=complex)
    for parts in table[split:]:
        tail = _expand(tail, parts)

    # row lo + i * (shift_hi + 1) + shift is candidate i of the block at that shift
    rows = np.zeros((total_specs, width), dtype=complex)
    step = size * (shift_hi + 1)
    for lo, row in zip(range(0, total_specs, step), head):
        polys = _expand(tail, row[None, :])
        block = rows[lo : lo + step].reshape(size, shift_hi + 1, width)
        for shift in range(shift_hi + 1):
            block[:, shift, shift : shift + polys.shape[1]] = polys
        rows[lo : lo + step] = _canonical_rows(rows[lo : lo + step])
    rows *= np.sqrt(autocorr.c0 / np.sum(np.abs(rows) ** 2, axis=1))[:, None]
    rows.setflags(write=False)
    return ClassSet(coeffs=rows, autocorr=autocorr)


def enumerate_classes(
    p,
    cap=2**20,
    root_tol=1e-8,
    circle_band=1e-9,
    seed=12345,
):
    """All ambiguity classes of a signal under square-law detection.

    One phase-normalized row of energy c_0 per flip spec, in spec order:
    every orbit split of the lift in itertools.product order, then every
    admissible origin shift. The class count is the closed-form
    (shift_hi + 1) * prod(total_i + 1) over the reflection orbits, which
    never exceeds 2^(2m+1); for a generic signal (simple off-circle orbits,
    full degree, nonzero lowest coefficient) it equals 2^q with q the
    number of orbits.
    """
    if np.all(p.coeffs == 0):
        raise ZeroSignal("the zero signal has no ambiguity classes")
    r = find_roots(lift(p), tol=root_tol, circle_band=circle_band, seed=seed)
    orbits, on_circle, origin = pair_reciprocal(r)
    cs = _classes(
        [(orbit.inner, orbit.outer, orbit.total) for orbit in orbits],
        [(root.location / abs(root.location), root.multiplicity) for root in on_circle],
        2 * p.m - r.degree + origin,
        autocorrelation(p),
        cap,
    )
    # a guard against construction bugs
    return _gated(cs, 1e-6, DomainError, "representative misses the source measurement by %.3g")


def factor_sld(
    s,
    check_intensity=True,
    cap=2**20,
    root_tol=1e-8,
    circle_band=1e-9,
    tol=1e-8,
    seed=12345,
):
    """Recover every signal class consistent with a square-law measurement.

    Factors the lift of s, pairs its roots into reflection orbits (they
    must balance exactly, this is what makes a Hermitian sequence an
    actual measurement), halves the on-circle multiplicities, and rebuilds
    one candidate per orbit split and origin shift, scaled to match c_0.
    The rows come in spec order, as in enumerate_classes, so the count is
    (shift_hi + 1) * prod(mult_inner_i + 1) over the lift's orbits.

    check_intensity=False skips the sampled nonnegativity screen, which is
    useful for exercising the structural pairing failure on sequences
    whose synthesized intensity dips negative.
    """
    if check_intensity:
        screen_intensity(s)
    # a circle root of the signal appears in the lift with multiplicity
    # 2k and splits numerically on a ring of width eps^(1/2k); when a
    # radius under-clusters, verification below rejects a valid
    # sequence, so widen and retry before believing the rejection
    first_err = None
    for radius in (1e-6, 1e-4, 8e-4, 5e-3):
        try:
            return _factor_at(s, cap, root_tol, circle_band, radius, tol, seed)
        except NotAnAutocorrelation as err:
            if first_err is None:
                first_err = err
    raise first_err


def _factor_at(s, cap, root_tol, circle_band, cluster_radius, tol, seed):
    q = autocorr_lift(s)
    rq = find_roots(
        q, tol=root_tol, circle_band=circle_band, cluster_radius=cluster_radius, seed=seed
    )
    try:
        orbits, on_circle, origin = pair_reciprocal(rq, assert_symmetric=True)
    except AsymmetricSpectrum as exc:
        raise NotAnAutocorrelation(str(exc)) from exc

    # an orbit of the lift holds each root of the signal twice, so a
    # signal splits mult_inner of them; structure fixes the radius of an
    # on-circle root at exactly one, so only the angle of the cluster
    # mean carries information
    halved = [
        (root.location / abs(root.location), root.multiplicity // 2)
        for root in on_circle
    ]
    budget = sum(o.mult_inner for o in orbits) + sum(v for _, v in halved)
    shift_hi = 2 * s.m - budget
    if shift_hi != origin:
        raise NotAnAutocorrelation(
            "origin multiplicity %d inconsistent with root budget %d" % (origin, budget)
        )

    cs = _classes(
        [(orbit.inner, orbit.outer, orbit.mult_inner) for orbit in orbits],
        halved,
        shift_hi,
        s,
        cap,
    )
    # once the orbits balance and circle multiplicities are even, the
    # sequence provably factors; a residual beyond the gate can only mean
    # the roots were located too coarsely, and the gate widens with the
    # observed cluster spread to reflect that conditioning
    rough = max((root.diameter for root in rq.roots), default=0.0)
    gate = max(tol, 1e-7, min(1e-3, 2.0 * rough))
    return _gated(cs, gate, NotAnAutocorrelation,
                  "candidate misses the sequence by %.3g, not a square-law measurement")


@dataclass(frozen=True, eq=False)
class BoundReport:
    exact_count: int
    bound: int
    passed: bool
    residuals: np.ndarray
    max_residual: float


def certify_bound(cs):
    """Check a class set against the counting bound and its source sequence."""
    return BoundReport(
        exact_count=cs.exact_count,
        bound=cs.bound,
        passed=cs.exact_count <= cs.bound,
        residuals=cs.residuals,
        max_residual=float(cs.residuals.max(initial=0.0)),
    )
