"""Finite-order mutual-information experiments for square-law detection.

The central question: how many bits per coefficient dimension does a
receiver lose by seeing only |y(t)|^2 instead of y(t)? Ambiguity classes
are finite (at most 2^(2m+1) members), so conditioning on the measurement
leaves at most 2m+1 + log2(m) bits of residual uncertainty, i.e. a loss of
at most 1 + log2(m)/(2m+1) bits per dimension. The experiments here make
that concrete on finite constellations: exact entropies, a grid-quantized
DC phase as the auxiliary observable, and discrete noise surrogates for
the channel.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ambiguity import enumerate_classes
from .errors import (
    DomainError,
    DuplicateSignals,
    InvalidNoiseSpec,
    NonInvertibleOnRange,
    OutOfRange,
    UnsupportedOrder,
    ZeroArgument,
    ZeroDC,
)
from .roots import _sweep, conj_reciprocal
from .signals import TrigPoly, _half_lags

# radius of the measurement and rotated-signal bins, and of the coherent
# merge of surrogate-channel outputs, per unit of the batch's largest modulus
_BIN_RADIUS = 1e-7
_MERGE_RADIUS = 1e-9


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """The m-point angular grid {0, +-2pi/m, ...} folded into [-pi, pi)."""

    m: int
    step: float = field(init=False)
    levels: tuple = field(init=False)

    def __post_init__(self):
        m = int(self.m)
        if m < 1:
            raise UnsupportedOrder("phase grid needs m >= 1")
        step = 2 * np.pi / m
        levels = set()
        for j in range(-(m // 2), m // 2 + 1):
            angle = j * step
            if angle >= np.pi:
                angle -= 2 * np.pi
            levels.add(float(angle))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "step", float(step))
        object.__setattr__(self, "levels", tuple(sorted(levels)))


def _quantize_raw(grid, theta):
    # floor((theta + pi/m) / step) * step; ties resolve counterclockwise
    half = np.pi / grid.m
    return np.floor((theta + half) / grid.step) * grid.step


def quantize_phase(grid, theta):
    """Snap an angle in [-pi, pi) to the nearest grid level.

    The raw floor formula can emit +pi for angles near the top of the
    range; that value is folded back to -pi so the result always lies in
    the level set.
    """
    theta = float(theta)
    if not (-np.pi <= theta < np.pi):
        raise OutOfRange("angle %r outside [-pi, pi)" % theta)
    value = _quantize_raw(grid, theta)
    if value >= np.pi:
        value -= 2 * np.pi
    return float(value)


def theta_m(grid, w):
    """Rotation angle that carries arg(w) onto the grid.

    Defined by the unfolded quantizer, so the value lies in
    (-pi/m, pi/m]; rotating w by it lands the argument on a level modulo
    a full turn.
    """
    w = complex(w)
    if w == 0:
        raise ZeroArgument("zero has no argument to rotate")
    return float(_rotation_angles(grid, w))


def _rotation_angles(grid, w):
    # theta_m over an array of nonzero values; +pi folds to -pi first
    theta = np.angle(w)
    theta = np.where(theta == np.pi, -np.pi, theta)
    return _quantize_raw(grid, theta) - theta


def _z_rows(mat, grid):
    """Rotate each coefficient row so its DC argument sits on `grid`.

    The batched form of auxiliary_rotate; rows with a zero DC coefficient
    pass through unrotated.
    """
    dc = mat[:, mat.shape[1] // 2]
    live = dc != 0
    turn = np.exp(1j * _rotation_angles(grid, dc[live]))
    rotated = mat.copy()
    rotated[live] = mat[live] * turn[:, None]
    return rotated


def auxiliary_rotate(y, grid=None, strict=False):
    """Rotate a signal so the argument of its DC coefficient sits on the grid.

    The rotation is global, so |z(t)| = |y(t)| everywhere and the
    square-law measurement is untouched. A zero DC coefficient leaves no
    angle to align; the signal passes through unchanged unless
    strict=True, in which case ZeroDC is raised.
    """
    if y.coeffs[y.m] == 0:
        if strict:
            raise ZeroDC("DC coefficient is zero, rotation undefined")
        return y
    if grid is None:
        grid = PhaseGrid(y.m)
    return TrigPoly(m=y.m, coeffs=_z_rows(y.coeffs[None, :], grid)[0], period=y.period)


@dataclass(frozen=True, eq=False)
class Constellation:
    """A finite input ensemble: coefficient rows with probabilities.

    coeffs, the only stored form of the points, is a read-only (K, 2m+1)
    array with one point per row, all of one period. signals is the rows
    as a tuple of TrigPoly, built on first access.
    """

    coeffs: np.ndarray
    probs: np.ndarray
    period: float = 1.0

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 2 or not len(coeffs) or coeffs.shape[1] % 2 == 0:
            raise DomainError("constellation needs a (K, 2m+1) array of rows, K >= 1")
        period = float(self.period)
        if not period > 0:
            raise DomainError("period must be positive")
        probs = np.array(self.probs, dtype=float)
        if probs.shape != (len(coeffs),):
            raise DomainError("need one probability per signal")
        if np.any(probs <= 0):
            raise DomainError("probabilities must be positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise DomainError("probabilities must sum to one")
        coeffs.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "period", period)

    @property
    def m(self):
        return self.coeffs.shape[1] // 2

    @cached_property
    def signals(self):
        return tuple(TrigPoly(m=self.m, coeffs=row, period=self.period) for row in self.coeffs)

    @classmethod
    def uniform(cls, signals):
        """Equally likely signals, which must share m and period."""
        signals = tuple(signals)
        if len({(s.m, s.period) for s in signals}) != 1:
            raise DomainError("constellation needs points, all of one m and period")
        return _uniform(np.stack([s.coeffs for s in signals]), signals[0].period)


def _uniform(coeffs, period):
    return Constellation(coeffs=coeffs, probs=np.full(len(coeffs), 1.0 / len(coeffs)),
                         period=period)


def entropy_bits(probs):
    """Shannon entropy in bits of a probability vector (zeros allowed)."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum()) + 0.0


def _first_ids(keys):
    """Group id of each key, numbered by first appearance."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _groups(rows, radii):
    """_sweep's group ids of the rows of a 2-D complex array, where rows i and j
    link when max_k |a_ik - a_jk| <= max(r_i, r_j) (radii: one per row, or one)."""
    radii = np.broadcast_to(radii, (len(rows),))
    return _sweep(rows, radii.max(), lambda i, j:
                  np.abs(rows[i] - rows[j]).max(axis=1) <= np.maximum(radii[i], radii[j]))


def _partition_entropy(ids, probs):
    return entropy_bits(np.bincount(ids, weights=probs))


def _check_distinct(mat):
    """Raise DuplicateSignals for the first pair of coinciding rows.

    Rows i < j coincide when max_k |a_ik - a_jk| <= 1e-12 * sqrt(max(E_i, E_j)),
    E being the row energy: _groups with radii 1e-12 * sqrt(E_i), the same
    band bit for bit. The pair named is the smallest (i, j): i the smallest
    member of a group of two or more, j its smallest partner. A row whose
    energy is not finite has no band, so it is rejected with DomainError
    before any pair is compared.
    """
    energy = np.sum(np.abs(mat) ** 2, axis=1)
    wild = np.flatnonzero(~np.isfinite(energy))
    if len(wild):
        raise DomainError(
            "constellation point %d has non-finite energy" % wild[0]
        )
    radii = 1e-12 * np.sqrt(energy)
    ids = _groups(mat, radii)
    shared = np.flatnonzero(np.bincount(ids)[ids] > 1)
    if len(shared):
        i = shared[0]
        near = np.abs(mat - mat[i]).max(axis=1) <= np.maximum(radii, radii[i])
        j = np.flatnonzero(near[i + 1 :])[0] + i + 1
        raise DuplicateSignals("constellation points %d and %d coincide" % (i, j))


@dataclass(frozen=True, eq=False)
class DiscreteNoise:
    """Finite noise model for the surrogate channel.

    kind "additive": offsets is a (K, 2m+1) complex array of coefficient
    perturbations with probability vector offset_probs; the channel emits
    y + eta. kind "transition": matrix[i, j] is the probability that input
    i is received as constellation point j.
    """

    kind: str
    offsets: np.ndarray = None
    offset_probs: np.ndarray = None
    matrix: np.ndarray = None

    @classmethod
    def zero(cls, m):
        return cls.additive(np.zeros((1, 2 * m + 1), dtype=complex), [1.0])

    @classmethod
    def additive(cls, offsets, probs):
        offsets = np.atleast_2d(np.asarray(offsets, dtype=complex))
        probs = np.asarray(probs, dtype=float)
        if len(probs) != len(offsets):
            raise InvalidNoiseSpec("need one probability per offset")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise InvalidNoiseSpec("offset probabilities must sum to one")
        return cls(kind="additive", offsets=offsets, offset_probs=probs)

    @classmethod
    def transition(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidNoiseSpec("transition matrix must be square")
        if np.any(matrix < 0) or np.abs(matrix.sum(axis=1) - 1.0).max() > 1e-9:
            raise InvalidNoiseSpec("transition rows must sum to one")
        return cls(kind="transition", matrix=matrix)

    @classmethod
    def flip(cls, eps):
        eps = float(eps)
        if not (0 <= eps <= 1):
            raise InvalidNoiseSpec("flip probability must lie in [0, 1]")
        return cls.transition([[1 - eps, eps], [eps, 1 - eps]])


def _mi_from_joint(joint):
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mask = joint > 0
    outer = np.outer(px, py)
    return float((joint[mask] * np.log2(joint[mask] / outer[mask])).sum())


def mi_dmc(c, noise):
    """(I_xy, I_xs) over a discrete memoryless surrogate channel.

    Builds the exact joint distribution of input and coherent output,
    merging outputs that _groups links at 1e-9 of their largest modulus,
    then coarsens the output alphabet by measurement bin, as in
    gap_experiment, for the square-law side. Binning is deterministic
    post-processing, so I_xs <= I_xy holds by construction.
    """
    mat = c.coeffs
    _check_distinct(mat)
    K, width = mat.shape

    if noise.kind == "transition":
        if noise.matrix.shape != (K, K):
            raise InvalidNoiseSpec(
                "transition matrix is %s but the constellation has %d points"
                % (noise.matrix.shape, K)
            )
        joint = c.probs[:, None] * noise.matrix
        out = mat
    elif noise.kind == "additive":
        if noise.offsets.shape[1] != width:
            raise InvalidNoiseSpec(
                "offsets have %d coefficients, signals have %d"
                % (noise.offsets.shape[1], width)
            )
        # output column i * n_off + k is input i plus offset k
        n_off = len(noise.offsets)
        out = (mat[:, None, :] + noise.offsets[None, :, :]).reshape(K * n_off, width)
        joint = np.zeros((K, K * n_off))
        joint[np.repeat(np.arange(K), n_off), np.arange(K * n_off)] = (
            c.probs[:, None] * noise.offset_probs[None, :]
        ).ravel()
    else:
        raise InvalidNoiseSpec("unknown noise kind %r" % noise.kind)

    # coherent side: merge outputs that are the same waveform
    merged = _groups(out, _MERGE_RADIUS * np.abs(out).max())
    lags = _half_lags(out)
    binned = _groups(lags, _BIN_RADIUS * np.abs(lags).max())
    return tuple(_mi_from_joint(_merge_columns(joint, ids)) for ids in (merged, binned))


def _merge_columns(joint, ids):
    merged = np.zeros((joint.shape[0], ids.max() + 1))
    np.add.at(merged, (slice(None), ids), joint)
    return merged


@dataclass(frozen=True)
class GapReport:
    """Per-constellation outcome of the detection-gap experiment.

    i_xz and h_z_given_s document the auxiliary-rotation bookkeeping:
    i_xy - i_xs should equal the conditional entropy of the rotated
    signal given the measurement bin, and chain_residual measures how far
    the computed quantities drift from that identity. zero_dc counts
    constellation points whose DC coefficient vanished, where the
    rotation degenerates to a pass-through.
    """

    m: int
    i_xy: float
    i_xs: float
    i_xz: float
    h_z_given_s: float
    chain_residual: float
    per_dim_gap: float
    bound: float
    passed: bool
    zero_dc: int


def gap_experiment(c):
    """Measure the square-law information loss of a constellation.

    Computes the noiseless mutual informations, the per-dimension gap
    (i_xy - i_xs) / (2m+1), and the finite-order ceiling
    1 + log2(m)/(2m+1) it must respect. Measurements, and signals rotated
    onto the phase grid, are binned by _groups at 1e-7 of their largest
    modulus. A measurement is binned by its lags k >= 0: the lags k < 0
    are their conjugates, which change neither a modulus nor a distance.
    """
    m = c.m
    if m < 1:
        raise UnsupportedOrder("the gap bound needs m >= 1")
    mat = c.coeffs
    _check_distinct(mat)
    # measurement and rotated-signal bins; the first serve both I_xs and
    # the chain identity below
    s_ids, z_ids = (_groups(rows, _BIN_RADIUS * np.abs(rows).max())
                    for rows in (_half_lags(mat), _z_rows(mat, PhaseGrid(m))))
    i_xy = entropy_bits(c.probs)
    i_xs = _partition_entropy(s_ids, c.probs)

    zero_dc = int(np.count_nonzero(mat[:, m] == 0))

    i_xz = _partition_entropy(z_ids, c.probs)
    h_zs = _partition_entropy(_first_ids(z_ids * len(mat) + s_ids), c.probs)
    h_z_given_s = h_zs - i_xs
    chain_residual = abs((i_xy - i_xs) - h_z_given_s)

    per_dim_gap = (i_xy - i_xs) / (2 * m + 1)
    bound = 1.0 + np.log2(m) / (2 * m + 1)
    return GapReport(
        m=m,
        i_xy=i_xy,
        i_xs=i_xs,
        i_xz=i_xz,
        h_z_given_s=h_z_given_s,
        chain_residual=chain_residual,
        per_dim_gap=per_dim_gap,
        bound=float(bound),
        passed=bool(per_dim_gap <= bound + 1e-9),
        zero_dc=zero_dc,
    )


def measurement_transform(samples, phi, inverse):
    """Push intensity samples through an invertible readout map.

    phi must be strictly monotone on the observed sample range and
    inverse must undo it there to 1e-10; anything downstream (recovering
    the sequence, factoring it) is unaffected because the original
    samples are recoverable exactly.
    """
    samples = np.asarray(samples, dtype=float)
    out = np.asarray(phi(samples), dtype=float)
    back = np.asarray(inverse(out), dtype=float)
    span = 1.0 + np.abs(samples).max()
    # written as not <= so a NaN inverse fails too
    if not (np.abs(back - samples).max() <= 1e-10 * span):
        raise NonInvertibleOnRange("inverse does not undo the map on these samples")
    order = np.argsort(samples)
    s_sorted = samples[order]
    o_sorted = out[order]
    # ulp-level ties (symmetric sample grids produce them) are not evidence
    # about monotonicity either way
    distinct = np.diff(s_sorted) > 1e-12 * span
    steps = np.diff(o_sorted)[distinct]
    if len(steps) and not (np.all(steps > 0) or np.all(steps < 0)):
        raise NonInvertibleOnRange("map is not strictly monotone on the sample range")
    return out


def _deterministic_roots(m, q, spread=0.37):
    """q well-separated off-circle roots plus 2m - q on-circle roots."""
    locs = []
    for j in range(q):
        radius = 0.35 + 0.3 * (j / max(q - 1, 1))
        angle = 2 * np.pi * j / max(q, 1) + spread
        loc = radius * np.exp(1j * angle)
        if j % 2:
            loc = conj_reciprocal(loc)
        locs.append(loc)
    for j in range(2 * m - q):
        locs.append(np.exp(1j * (0.81 + 2 * np.pi * j / max(2 * m - q, 1))))
    return locs


def _signal_from_roots(m, locs, period=1.0):
    coeffs = np.array([1.0 + 0.0j])
    for loc in locs:
        coeffs = np.convolve(coeffs, np.array([-loc, 1.0 + 0.0j]))
    p = TrigPoly(m=m, coeffs=coeffs, period=period)
    return TrigPoly(m=m, coeffs=p.coeffs / np.sqrt(p.energy), period=period)


def single_class_constellation(m, q, period=1.0):
    """One whole ambiguity class as a uniform constellation.

    The source signal has q simple off-circle orbits and full degree, so
    the class holds exactly 2^q members sharing one measurement. Coherent
    detection gets q bits, square-law detection gets none, and the
    per-dimension gap is q / (2m+1): stepping q up to 2m walks the gap
    toward one bit.
    """
    if not (1 <= q <= 2 * m):
        raise DomainError("need 1 <= q <= 2m")
    source = _signal_from_roots(m, _deterministic_roots(m, q), period)
    cs = enumerate_classes(source)
    return _uniform(cs.coeffs, period)


def bundled_constellation(m, period=1.0):
    """The stock m-th constellation used by the sweep and the test suite.

    A full ambiguity class of a generic signal (2m off-circle orbits, so
    2^(2m) members) plus two constant-envelope tones at distinct power
    levels. The tones add measurement diversity so neither information
    quantity is degenerate.
    """
    if m < 1:
        raise UnsupportedOrder("bundled constellations start at m = 1")
    source = _signal_from_roots(m, _deterministic_roots(m, 2 * m), period)
    cs = enumerate_classes(source)
    tones = np.zeros((2, 2 * m + 1), dtype=complex)
    tones[:, m] = (2.0, 3.0)
    return _uniform(np.concatenate([cs.coeffs, tones]), period)
