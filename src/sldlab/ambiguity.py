"""Enumeration of square-law ambiguity classes and spectral factorization.

A square-law detector only sees |y(t)|^2, so any signal whose lift differs
by reflecting roots across the unit circle (with the compensating scale),
by shifting origin powers within the degree budget, or by a global phase
produces the identical measurement. This module enumerates that whole
family from a signal, recovers it from a measured sequence, and certifies
the counting bound 2^(2m+1).
"""

import math
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
from .roots import find_roots, pair_reciprocal
from .signals import (
    AutocorrSeq,
    CoeffPoly,
    TrigPoly,
    autocorr_lift,
    autocorrelation,
    autocorrelation_rows,
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
    power n_g of the result. scale, when given, must equal the magnitude
    ratio |a_g| / |a_f| forced by keeping the circle magnitude fixed; left
    as None it is derived.
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
    order, then origin shift), so K is the closed-form count
    (shift_hi + 1) * prod(total_i + 1) over the orbits. residuals holds
    each row's largest autocorrelation deviation from autocorr over c_0
    (0.0 when c_0 is 0), computed on construction; representatives is the
    rows as a tuple of TrigPoly, built on first access.
    """

    coeffs: np.ndarray
    autocorr: AutocorrSeq
    residuals: tuple = field(init=False, repr=False)

    def __post_init__(self):
        rows = np.asarray(self.coeffs, dtype=complex)
        rows = rows.copy() if rows.flags.writeable else rows
        rows.setflags(write=False)
        if rows.ndim != 2 or rows.shape[1] != 2 * self.autocorr.m + 1:
            raise DomainError("expected a (K, 2m+1) array of rows, m = %d" % self.autocorr.m)
        c0 = self.autocorr.c0
        residuals = np.zeros(len(rows))
        if c0 > 0:
            residuals = _deviations(rows, self.autocorr.coeffs) / c0
        object.__setattr__(self, "coeffs", rows)
        object.__setattr__(self, "residuals", tuple(residuals.tolist()))

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
    """cs, unless a row's residual exceeds gate: then error(message % its deviation)."""
    residuals = np.array(cs.residuals)
    miss = np.flatnonzero(residuals > gate)
    if len(miss):
        raise error(message % (residuals[miss[0]] * cs.autocorr.c0))
    return cs


def _deviations(rows, target):
    """max_k |autocorrelation(row)_k - target_k| for each row of a 2-D array.

    The batched autocorrelation takes _BLOCK_ROWS rows at a time.
    """
    out = np.empty(len(rows))
    for lo in range(0, len(rows), _BLOCK_ROWS):
        block = rows[lo : lo + _BLOCK_ROWS]
        out[lo : lo + len(block)] = np.abs(autocorrelation_rows(block) - target).max(axis=1)
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
    # Python's abs of each pivot: np.abs on an array can differ from it
    # in the last bit
    out[idx[pin], j[pin]] = [abs(z) for z in pivot[pin].tolist()]
    return out


def _poly_power(base, k):
    out = np.array([1.0 + 0.0j])
    for _ in range(k):
        out = np.convolve(out, base)
    return out


def _linear(root):
    return np.array([-root, 1.0 + 0.0j])


def _times_circle(coeffs, roots):
    """coeffs times (z - loc)^k for each (loc, k) of roots, in turn."""
    for loc, k in roots:
        coeffs = np.convolve(coeffs, _poly_power(_linear(loc), k))
    return coeffs


def _orbit_table(orbits, measured):
    """Per orbit, the (parts, scales) of every split of its roots.

    Row j of parts is the ascending polynomial with j roots at the inner
    location of the orbit and the rest at the outer one. A signal's orbit
    splits all of its roots, and moving one outside multiplies by |inner|
    so the magnitude on the circle is kept. An orbit of a measured
    sequence holds each root of the signal twice, so the candidate splits
    mult_inner roots, and its scale is fixed later by c_0.
    """
    table = []
    for orbit in orbits:
        total = orbit.mult_inner if measured else orbit.total
        parts = np.stack([
            np.convolve(
                _poly_power(_linear(orbit.inner), j),
                _poly_power(_linear(orbit.outer), total - j),
            )
            for j in range(total + 1)
        ])
        scales = np.array([
            1.0 if measured else abs(orbit.inner) ** (orbit.mult_inner - j)
            for j in range(total + 1)
        ])
        table.append((parts, scales))
    return table


def flip(f, spec, root_tol=1e-8, circle_band=1e-9, cluster_radius=1e-6):
    """Apply one flip specification to a polynomial.

    Moves roots across the unit circle orbit by orbit, re-seats the origin
    power, and rescales so the magnitude on the circle is untouched. The
    result is magnitude-equivalent to f with ratio exactly one.
    """
    r = find_roots(f, tol=root_tol, circle_band=circle_band, cluster_radius=cluster_radius)
    orbits, on_circle, origin = pair_reciprocal(r)
    if len(spec.orbit_splits) != len(orbits):
        raise InvalidSpec(
            "expected %d orbit splits, got %d" % (len(orbits), len(spec.orbit_splits))
        )
    shift_hi = f.n - r.degree + origin
    if not (0 <= spec.shift <= shift_hi):
        raise InvalidSpec("shift %d outside [0, %d]" % (spec.shift, shift_hi))

    coeffs = np.array([r.leading_coeff], dtype=complex)
    scale = 1.0
    table = _orbit_table(orbits, measured=False)
    for orbit, split, (parts, scales) in zip(orbits, spec.orbit_splits, table):
        inner_t, outer_t = int(split[0]), int(split[1])
        if inner_t < 0 or outer_t < 0 or inner_t + outer_t != orbit.total:
            raise InvalidSpec(
                "split %s does not preserve the orbit total %d" % (split, orbit.total)
            )
        coeffs = np.convolve(coeffs, parts[inner_t])
        scale *= scales[inner_t]
    coeffs = _times_circle(coeffs, ((root.location, root.multiplicity) for root in on_circle))
    if spec.scale is not None and abs(spec.scale - scale) > 1e-9 * max(scale, 1.0):
        raise InvalidSpec(
            "declared scale %.12g conflicts with the forced value %.12g"
            % (spec.scale, scale)
        )
    coeffs = coeffs * scale
    if spec.shift:
        coeffs = np.concatenate([np.zeros(spec.shift, dtype=complex), coeffs])
    return CoeffPoly(coeffs=coeffs, n=f.n)


def _expand(rows, scales, parts, part_scales):
    """Every row times every part, in itertools.product order.

    rows (K, L) and parts (n, d+1) are ascending polynomials; row i * n + j
    of the (K n, L + d) result is rows[i] convolved with parts[j], built by
    shifted adds, and its scale is scales[i] * part_scales[j].
    """
    K, L = rows.shape
    n, d1 = parts.shape
    out = np.zeros((K, n, L + d1 - 1), dtype=complex)
    for k in range(d1):
        out[:, :, k : k + L] += rows[:, None, :] * parts[None, :, k, None]
    return out.reshape(K * n, -1), (scales[:, None] * part_scales[None, :]).ravel()


def _assemble_classes(leading, orbit_table, circle_coeffs, shift_hi, m, cap):
    """Canonical rows of every flip spec, in spec order.

    A spec picks one part per orbit, in itertools.product order, and then
    an origin shift 0..shift_hi. Its row is leading * circle_coeffs * the
    picked parts, times the product of their scales, placed at the shift
    and canonicalized. Row i belongs to spec i, so the row count is the
    closed-form count (shift_hi + 1) * prod(total_i + 1). Candidates are
    built _BLOCK_ROWS at a time, one block per choice of the leading
    orbits, straight into the one result array.
    """
    counts = [len(parts) for parts, _ in orbit_table]
    total_specs = (shift_hi + 1) * math.prod(counts)
    if total_specs > cap:
        raise CombinatorialBlowup(
            "%d candidate specs exceed the cap of %d" % (total_specs, cap)
        )
    width = 2 * m + 1
    degree = len(circle_coeffs) - 1 + sum(len(parts[0]) - 1 for parts, _ in orbit_table)
    if degree + shift_hi > 2 * m:
        raise DegreeTooLarge(
            "degree %d does not fit harmonic order m=%d" % (degree + shift_hi, m)
        )

    # the trailing orbits whose splits fit in one block form the block;
    # the leading ones are expanded once and walked choice by choice
    split, size = len(orbit_table), 1
    per_block = max(1, _BLOCK_ROWS // (shift_hi + 1))
    while split and size * counts[split - 1] <= per_block:
        split -= 1
        size *= counts[split]
    head = (np.asarray(leading * circle_coeffs, dtype=complex)[None, :], np.ones(1))
    for parts, scales in orbit_table[:split]:
        head = _expand(*head, parts, scales)
    tail = (np.ones((1, 1), dtype=complex), np.ones(1))
    for parts, scales in orbit_table[split:]:
        tail = _expand(*tail, parts, scales)

    # row lo + i * (shift_hi + 1) + shift is candidate i of the block at that shift
    rows = np.zeros((total_specs, width), dtype=complex)
    step = size * (shift_hi + 1)
    for lo, (row, scale) in zip(range(0, total_specs, step), zip(*head)):
        polys, scales = _expand(*tail, row[None, :], np.array([scale]))
        polys *= scales[:, None]
        block = rows[lo : lo + step].reshape(size, shift_hi + 1, width)
        for shift in range(shift_hi + 1):
            block[:, shift, shift : shift + polys.shape[1]] = polys
        rows[lo : lo + step] = _canonical_rows(rows[lo : lo + step])
    return rows


def enumerate_classes(
    p,
    cap=2**20,
    root_tol=1e-8,
    circle_band=1e-9,
    cluster_radius=1e-6,
    seed=12345,
):
    """All ambiguity classes of a signal under square-law detection.

    One phase-normalized row per flip spec, in spec order: every orbit
    split of the lift in itertools.product order, then every admissible
    origin shift. The class count is the closed-form
    (shift_hi + 1) * prod(total_i + 1) over the reflection orbits, which
    never exceeds 2^(2m+1); for a generic signal (simple off-circle orbits,
    full degree, nonzero lowest coefficient) it equals 2^q with q the
    number of orbits.
    """
    if np.all(p.coeffs == 0):
        raise ZeroSignal("the zero signal has no ambiguity classes")
    f = lift(p)
    r = find_roots(
        f, tol=root_tol, circle_band=circle_band, cluster_radius=cluster_radius, seed=seed
    )
    orbits, on_circle, origin = pair_reciprocal(r)
    shift_hi = 2 * p.m - r.degree + origin

    circle_coeffs = _times_circle(
        np.array([1.0 + 0.0j]),
        ((root.location / abs(root.location), root.multiplicity) for root in on_circle),
    )
    rows = _assemble_classes(
        r.leading_coeff,
        _orbit_table(orbits, measured=False),
        circle_coeffs,
        shift_hi,
        p.m,
        cap,
    )
    rows.setflags(write=False)
    # a guard against construction bugs
    return _gated(ClassSet(coeffs=rows, autocorr=autocorrelation(p)), 1e-6, DomainError,
                  "representative misses the source measurement by %.3g")


def factor_sld(
    s,
    check_intensity=True,
    cap=2**20,
    root_tol=1e-8,
    circle_band=1e-9,
    cluster_radius=1e-6,
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
    # 2k and splits numerically on a ring of width eps^(1/2k); when the
    # requested radius under-clusters, verification below rejects a valid
    # sequence, so widen and retry before believing the rejection
    radii = [cluster_radius]
    for widened in (1e-4, 8e-4, 5e-3):
        if widened > radii[-1]:
            radii.append(widened)
    first_err = None
    for radius in radii:
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

    # structure fixes the radius of an on-circle root at exactly one, so
    # only the angle of the cluster mean carries information
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

    rows = _assemble_classes(
        1.0,
        _orbit_table(orbits, measured=True),
        _times_circle(np.array([1.0 + 0.0j]), halved),
        shift_hi,
        s.m,
        cap,
    )
    # once the orbits balance and circle multiplicities are even, the
    # sequence provably factors; a residual beyond the gate can only mean
    # the roots were located too coarsely, and the gate widens with the
    # observed cluster spread to reflect that conditioning
    rough = max((root.diameter for root in rq.roots), default=0.0)
    gate = max(tol, 1e-7, min(1e-3, 2.0 * rough))
    rows *= np.sqrt(s.c0 / np.sum(np.abs(rows) ** 2, axis=1))[:, None]
    rows.setflags(write=False)
    return _gated(ClassSet(coeffs=rows, autocorr=s), gate, NotAnAutocorrelation,
                  "candidate misses the sequence by %.3g, not a square-law measurement")


@dataclass(frozen=True)
class BoundReport:
    exact_count: int
    bound: int
    passed: bool
    residuals: tuple
    max_residual: float


def certify_bound(cs):
    """Check a class set against the counting bound and its source sequence."""
    return BoundReport(
        exact_count=cs.exact_count,
        bound=cs.bound,
        passed=cs.exact_count <= cs.bound,
        residuals=cs.residuals,
        max_residual=max(cs.residuals, default=0.0),
    )
