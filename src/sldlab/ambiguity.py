"""Enumeration of square-law ambiguity classes and spectral factorization.

A square-law detector only sees |y(t)|^2, so any signal whose lift differs
by reflecting roots across the unit circle (with the compensating scale),
by shifting origin powers within the degree budget, or by a global phase
produces the identical measurement. This module enumerates that whole
family from a signal, recovers it from a measured sequence, and certifies
the counting bound 2^(2m+1).

Both directions build their classes from one roots.OrbitTable: the
(inner, outer, k_inner, k_outer) of each reflection orbit, the (location,
k) of each circle root, and the origin multiplicity and degree that fix
the origin shifts. A signal's table is that of its lift, whose orbits
split all their roots. A measured sequence's is its lift's table halved:
the lift holds each root of the signal twice, so a signal splits k_inner
of them. Every row is scaled to energy c_0, which all classes of one
measurement share.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricSpectrum,
    CombinatorialBlowup,
    DegreeTooLarge,
    DomainError,
    NotAnAutocorrelation,
    ZeroSignal,
)
from .roots import _CLUSTER_RADIUS, _modulus, _row_max, _rungs, find_roots, pair_reciprocal
from .signals import (
    _half_lags,
    AutocorrSeq,
    autocorr_lift,
    autocorrelation,
    lift,
    screen_intensity,
)

# candidate rows built per block: of 512 to 8,192, 1,024 faults least in gap --sweep
_BLOCK_ROWS = 1024
_FOLD_ROWS = 8192  # rows the trailing orbits fill, which fixes each class row's rounding
_RUNGS = (_CLUSTER_RADIUS, 1e-4, 8e-4, 5e-3)  # factor_sld's cluster radii, in turn
# flip specs one class set may hold before CombinatorialBlowup
_CAP = 2**20


@dataclass(frozen=True, eq=False)
class ClassSet:
    """Canonical representatives of the ambiguity classes of one measurement.

    coeffs, the only stored form, is a read-only (K, 2m+1) array with one
    class per row (a read-only complex input is kept, any other copied);
    autocorr is the measurement they share. From enumerate_classes and
    factor_sld, row i is flip spec i (orbit splits in itertools.product
    order, then origin shift), scaled to energy c_0, so K is the
    closed-form count (shift_hi + 1) * prod(k_i + 1) over the orbits of
    the OrbitTable both build from. residuals holds each row's largest
    autocorrelation deviation from autocorr over c_0 (0.0 when c_0 is 0)
    in a read-only array, computed on construction from the lags k >= 0
    alone (the lags k < 0 are their conjugates).
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


def _gate(residuals, c0, gate, error, message):
    """Raise error(message % its deviation) for the first residual above gate or NaN."""
    miss = np.flatnonzero(~(residuals <= gate))
    if len(miss):
        raise error(message % (residuals[miss[0]] * c0))


def _source_gate(residuals, c0):
    """The gate of a signal's own class rows: a row that misses the signal's
    measurement by more than 1e-6 of c_0 raises DomainError.

    That guards against construction bugs, whether the rows' table came
    from a root solve (enumerate_classes) or from roots known by
    construction (the gap constellations).
    """
    _gate(residuals, c0, 1e-6, DomainError, "representative misses the source measurement by %.3g")


def _deviations(rows, target):
    """_lag_deviations of each row of a 2-D array, whose half lags are
    taken _BLOCK_ROWS rows at a time."""
    out = np.empty(len(rows))
    for lo in range(0, len(rows), _BLOCK_ROWS):
        block = rows[lo : lo + _BLOCK_ROWS]
        out[lo : lo + len(block)] = _lag_deviations(_half_lags(block), target)
    return out


def _lag_deviations(lags, target):
    """max_k |autocorrelation(row)_k - target_k| for each row of _half_lags.

    target is a Hermitian sequence ordered k = -2m..2m, and so is every
    row's, so only the lags k >= 0 are compared: |conj(a) - conj(b)| is
    |a - b| bit for bit. The full row's clean-up doubles each part, which
    overflows at 2^1023; a row with such a part deviates by inf, so every
    gate refuses it. lags holds at least one row.
    """
    dev = _row_max(np.abs(lags - target[len(target) // 2 :]))
    # Cauchy-Schwarz keeps every |c_k| within rounding of c_0, so only
    # lags whose c_0 reaches 2^1022 (or is NaN) can hold such a part
    if not lags[:, 0].real.max() < 2.0**1022:
        dev[_row_max(np.abs(lags.view(float))) >= 2.0**1023] = np.inf
    return dev


def _canonical_rows(rows):
    """Phase-normalize each row of a 2-D complex array: its lowest nonzero
    coefficient becomes positive real.

    The pivot is the first coefficient above 1e-12 of the row's largest
    modulus. The row turns by minus the pivot's angle unless that angle is
    within 1e-12, and the pivot is then pinned to its modulus unless it is
    already positive real. Idempotent: a row already in canonical form
    comes back unchanged, bit for bit. A zero row raises ZeroSignal.
    """
    mags = np.abs(rows)
    top = _row_max(mags)
    if not np.all(top > 0):
        raise ZeroSignal("cannot canonicalize the zero signal")
    idx = np.arange(len(rows))
    j = _row_max(mags > 1e-12 * top[:, None])
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


def _classes(table, autocorr):
    """The ClassSet of _class_rows, whose residuals are taken block by block."""
    return ClassSet(coeffs=_class_rows(table, autocorr), autocorr=autocorr)


def _class_rows(table, autocorr):
    """The read-only rows of every flip spec of an OrbitTable, one row per
    spec, in spec order.

    An orbit (inner, outer, k_inner, k_outer) splits its k = k_inner +
    k_outer roots: its split j puts j of them at inner and the rest at
    outer, so its part is (z - inner)^j (z - outer)^(k - j), j = 0..k.
    The circle roots, at their unit locations loc / |loc|, are moved by
    no spec. A spec picks one split per orbit, in itertools.product order,
    and then an origin shift 0..shift_hi, shift_hi = 2m - (degree -
    origin). Its row is the circle roots' polynomial times the picked
    parts, placed at the shift, canonicalized and scaled to the energy c_0
    of autocorr, which every class of one measurement shares. The row
    count is the closed-form count (shift_hi + 1) * prod(k_i + 1); a count
    above _CAP raises CombinatorialBlowup before any row is built, and
    rows that do not fit order m raise DegreeTooLarge. The trailing
    orbits whose splits fill at most _FOLD_ROWS rows fold from 1, the
    leading ones from the circle roots' polynomial, and a row is the one
    product times the other, which fixes its rounding. Candidates are
    built _BLOCK_ROWS at a time within that fold, straight into the one
    result array.
    """
    m = autocorr.m
    shift_hi = 2 * m - (table.degree - table.origin)
    splits = []
    for inner, outer, k_inner, k_outer in table.orbits:
        k = k_inner + k_outer
        splits.append(np.stack([_monic(((inner, j), (outer, k - j))) for j in range(k + 1)]))
    counts = [len(parts) for parts in splits]
    total_specs = (shift_hi + 1) * math.prod(counts)
    if total_specs > _CAP:
        raise CombinatorialBlowup(
            "%d candidate specs exceed the cap of %d" % (total_specs, _CAP)
        )
    width = 2 * m + 1
    circle_coeffs = _monic((loc / abs(loc), k) for loc, k in table.circle)
    degree = len(circle_coeffs) - 1 + sum(parts.shape[1] - 1 for parts in splits)
    if degree + shift_hi > 2 * m:
        raise DegreeTooLarge(
            "degree %d does not fit harmonic order m=%d" % (degree + shift_hi, m)
        )

    # the first fold orbits build head, the next ones to inner the starts,
    # and the rest each start's tail: a block is a head row times one tail
    trail = np.cumprod(counts[::-1])  # the rows of the last 1, 2, ... orbits' splits
    fold = len(counts) - np.count_nonzero(trail <= max(1, _FOLD_ROWS // (shift_hi + 1)))
    inner = len(counts) - np.count_nonzero(trail <= max(1, _BLOCK_ROWS // (shift_hi + 1)))
    inner = max(fold, inner)
    head = circle_coeffs[None, :]
    for parts in splits[:fold]:
        head = _expand(head, parts)
    starts = np.ones((1, 1), dtype=complex)
    for parts in splits[fold:inner]:
        starts = _expand(starts, parts)

    # row lo + i * (shift_hi + 1) + shift is candidate i of the block at that shift
    rows = np.zeros((total_specs, width), dtype=complex)
    size = math.prod(counts[inner:])
    step = size * (shift_hi + 1)
    for k, start in enumerate(starts):
        tail = start[None, :]
        for parts in splits[inner:]:
            tail = _expand(tail, parts)
        for h, row in enumerate(head):
            lo = (h * len(starts) + k) * step
            polys = _expand(tail, row[None, :])
            block = rows[lo : lo + step].reshape(size, shift_hi + 1, width)
            for shift in range(shift_hi + 1):
                block[:, shift, shift : shift + polys.shape[1]] = polys
            canon = _canonical_rows(rows[lo : lo + step])
            canon *= np.sqrt(autocorr.c0 / np.sum(np.abs(canon) ** 2, axis=1))[:, None]
            rows[lo : lo + step] = canon
    rows.setflags(write=False)
    return rows


def enumerate_classes(p):
    """All ambiguity classes of a signal under square-law detection.

    One phase-normalized row of energy c_0 per flip spec, in spec order:
    every orbit split of the lift in itertools.product order, then every
    admissible origin shift. The class count is the closed-form
    (shift_hi + 1) * prod(k_i + 1) over the reflection orbits, which
    never exceeds 2^(2m+1); for a generic signal (simple off-circle orbits,
    full degree, nonzero lowest coefficient) it equals 2^q with q the
    number of orbits. More than 2^20 classes raise CombinatorialBlowup.
    """
    if np.all(p.coeffs == 0):
        raise ZeroSignal("the zero signal has no ambiguity classes")
    r = find_roots(lift(p))
    # a signal's orbits each hold all their roots; the rows come through
    # _source_gate against the signal's own measurement (the gap
    # constellations gate theirs on the lags their Constellation keeps)
    s = autocorrelation(p)
    cs = _classes(pair_reciprocal(r), s)
    _source_gate(cs.residuals, s.c0)
    return cs


def factor_sld(s):
    """Recover every signal class consistent with a square-law measurement.

    Factors the lift of s, pairs its roots into reflection orbits (they
    must balance exactly, this is what makes a Hermitian sequence an
    actual measurement), halves the on-circle multiplicities, and rebuilds
    one candidate per orbit split and origin shift, scaled to match c_0.
    The rows come in spec order, as in enumerate_classes, so the count is
    (shift_hi + 1) * prod(k_inner_i + 1) over the lift's orbits.

    The sampled intensity screen runs first: a sequence whose synthesized
    intensity dips negative raises NegativeIntensity before any root is
    solved for. A row that misses s by more than max(1e-7, min(1e-3,
    twice the widest root cluster)) of c_0 raises NotAnAutocorrelation,
    and more than 2^20 classes raise CombinatorialBlowup.
    """
    screen_intensity(s)
    # a circle root of the signal appears in the lift with multiplicity
    # 2k and splits numerically on a ring of width eps^(1/2k); when a
    # radius under-clusters, verification below rejects a valid
    # sequence, so widen and retry before believing the rejection. The
    # solve does not depend on the radius: one solve serves every rung
    first_err = None
    for (rq,) in _rungs((autocorr_lift(s),), _RUNGS):
        try:
            return _factor_at(s, rq)
        except NotAnAutocorrelation as err:
            if first_err is None:
                first_err = err
    raise first_err


def _factor_at(s, rq):
    # an orbit of the lift holds each root of the signal twice, so a
    # signal splits k_inner of them; structure fixes the radius of an
    # on-circle root at exactly one, so only the angle of the cluster
    # mean carries information, which _class_rows keeps
    try:
        table = pair_reciprocal(rq).halved()
    except AsymmetricSpectrum as exc:
        raise NotAnAutocorrelation(str(exc)) from exc
    budget = table.degree - table.origin
    if 2 * s.m - budget != table.origin:
        raise NotAnAutocorrelation(
            "origin multiplicity %d inconsistent with root budget %d" % (table.origin, budget)
        )

    cs = _classes(table, s)
    # once the orbits balance and circle multiplicities are even, the
    # sequence provably factors; a residual beyond the gate can only mean
    # the roots were located too coarsely, and the gate widens with the
    # observed cluster spread to reflect that conditioning
    rough = rq.diameters.max(initial=0.0)
    gate = max(1e-7, min(1e-3, 2.0 * rough))
    _gate(cs.residuals, s.c0, gate, NotAnAutocorrelation,
          "candidate misses the sequence by %.3g, not a square-law measurement")
    return cs


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
