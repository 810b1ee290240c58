"""Finite-order mutual-information experiments for square-law detection.

The central question: how many bits per coefficient dimension does a
receiver lose by seeing only |y(t)|^2 instead of y(t)? Ambiguity classes
are finite (at most 2^(2m+1) members), so conditioning on the measurement
leaves at most 2m+1 + log2(m) bits of residual uncertainty, i.e. a loss of
at most 1 + log2(m)/(2m+1) bits per dimension. The experiments here make
that concrete on finite constellations: exact entropies, and each signal
turned so its DC argument sits on the m-point grid (the auxiliary
observable z of gap_experiment's chain identity).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambiguity import _class_rows, _lag_deviations, _source_gate
from .errors import (
    DomainError,
    DuplicateSignals,
    UnsupportedOrder,
)
from .roots import OrbitTable, _row_max, _sweep, conj_reciprocal
from .signals import TrigPoly, _half_lags, autocorrelation

# radius of the measurement and rotated-signal bins, per unit of each row's
# largest modulus
_BIN_RADIUS = 1e-7
# angle by which the gap builders turn their inside roots off the grid
_SPREAD = 0.37


def _rotation_angles(w, m):
    """The turn that carries each nonzero w's argument onto the m-point grid.

    The grid is the multiples of 2 pi/m. With theta the argument (+pi
    folded to -pi first), the turn is floor((theta + pi/m) / step) * step
    - theta, step = 2 pi/m: ties go counterclockwise, and every turn lies
    in (-pi/m, pi/m].
    """
    step = 2 * np.pi / m
    theta = np.angle(w)
    theta = np.where(theta == np.pi, -np.pi, theta)
    return np.floor((theta + np.pi / m) / step) * step - theta


def _z_rows(mat, m):
    """Rotate each coefficient row so its DC argument sits on the m-point grid.

    The rotation is global, so each row's measurement is untouched; rows
    with a zero DC coefficient pass through unrotated.
    """
    dc = mat[:, mat.shape[1] // 2]
    live = dc != 0
    if live.all():
        return mat * np.exp(1j * _rotation_angles(dc, m))[:, None]
    turn = np.exp(1j * _rotation_angles(dc[live], m))
    rotated = mat.copy()
    rotated[live] = mat[live] * turn[:, None]
    return rotated


@dataclass(frozen=True, eq=False)
class Constellation:
    """A finite input ensemble: coefficient rows with probabilities.

    coeffs, the only stored form of the points, is a read-only (K, 2m+1)
    array with one point per row, all of one period (a read-only complex
    input is kept, any other copied). signals is the rows as a tuple of
    TrigPoly, and lags their measurements' lags k >= 0 as one read-only
    _half_lags array, each built on first access: the gap builders gate
    their class rows on lags, and gap_experiment bins the same array, so
    each row's lags are computed once.
    """

    coeffs: np.ndarray
    probs: np.ndarray
    period: float = 1.0

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        coeffs = coeffs.copy() if coeffs.flags.writeable else coeffs
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

    @cached_property
    def lags(self):
        lags = _half_lags(self.coeffs)
        lags.setflags(write=False)
        return lags


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
                  _row_max(np.abs(rows[i] - rows[j])) <= np.maximum(radii[i], radii[j]))


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
        near = _row_max(np.abs(mat - mat[i])) <= np.maximum(radii, radii[i])
        j = np.flatnonzero(near[i + 1 :])[0] + i + 1
        raise DuplicateSignals("constellation points %d and %d coincide" % (i, j))


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
    onto the phase grid, are binned by _groups with per-row radii, 1e-7 of
    each row's largest modulus, so one large point does not merge the
    small ones. A measurement is binned by its lags k >= 0, c.lags, which
    the gap builders have already computed to gate their class rows: the
    lags k < 0 are their conjugates, which change neither a modulus nor a
    distance.
    """
    m = c.m
    if m < 1:
        raise UnsupportedOrder("the gap bound needs m >= 1")
    mat = c.coeffs
    _check_distinct(mat)
    # measurement and rotated-signal bins; the first serve both I_xs and
    # the chain identity below
    s_ids, z_ids = (_groups(rows, _BIN_RADIUS * _row_max(np.abs(rows)))
                    for rows in (c.lags, _z_rows(mat, m)))
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


def _deterministic_roots(m, q):
    """q well-separated inside points and 2m - q unit locations.

    The source signal's off-circle roots are the inside points, the
    odd-numbered ones reflected outside the disk; its circle roots are the
    unit locations.
    """
    inside = []
    for j in range(q):
        radius = 0.35 + 0.3 * (j / max(q - 1, 1))
        angle = 2 * np.pi * j / max(q, 1) + _SPREAD
        inside.append(radius * np.exp(1j * angle))
    circle = [np.exp(1j * (0.81 + 2 * np.pi * j / max(2 * m - q, 1))) for j in range(2 * m - q)]
    return inside, circle


def _signal_from_roots(m, locs):
    coeffs = np.array([1.0 + 0.0j])
    for loc in locs:
        coeffs = np.convolve(coeffs, np.array([-loc, 1.0 + 0.0j]))
    p = TrigPoly(m=m, coeffs=coeffs)
    return TrigPoly(m=m, coeffs=p.coeffs / np.sqrt(p.energy))


def _source_constellation(m, q, tones):
    """The uniform constellation of the class rows of the source with q
    off-circle roots, built from its OrbitTable, then the rows of tones.

    The roots are known by construction, so no root is solved for: the
    source takes z or its reflection w = 1/conj(z), alternately, from each
    inside point, which gives the orbit (z, w, 1, 0) or (z, w, 0, 1), and
    each unit location u gives the circle root (u, 1). The entries are
    sorted by location as pair_reciprocal sorts them, so row i is flip
    spec i as in enumerate_classes. The source has full degree 2m and a
    nonzero lowest coefficient, so there is no origin shift. The class
    rows pass enumerate_classes' gate, _source_gate, on the
    constellation's own lags, which gap_experiment then bins.
    """
    inside, circle = _deterministic_roots(m, q)
    orbits = [(z, conj_reciprocal(z), 1 - j % 2, j % 2) for j, z in enumerate(inside)]
    source = _signal_from_roots(m, [w if k_outer else z for z, w, _, k_outer in orbits] + circle)

    def by_location(item):
        return item[0].real, item[0].imag

    table = OrbitTable(
        orbits=tuple(sorted(orbits, key=by_location)),
        circle=tuple(sorted(((u, 1) for u in circle), key=by_location)),
        origin=0,
        degree=2 * m,
        leading=complex(source.coeffs[-1]),
    )
    s = autocorrelation(source)
    points = np.concatenate([_class_rows(table, s), tones])
    points.setflags(write=False)
    c = _uniform(points, 1.0)
    _source_gate(_lag_deviations(c.lags[: len(points) - len(tones)], s.coeffs) / s.c0, s.c0)
    return c


def single_class_constellation(m, q):
    """One whole ambiguity class as a uniform constellation of period 1.

    The source signal has q simple off-circle orbits and full degree, so
    the class holds exactly 2^q members sharing one measurement. Coherent
    detection gets q bits, square-law detection gets none, and the
    per-dimension gap is q / (2m+1): stepping q up to 2m walks the gap
    toward one bit. The members are built from the source's roots, which
    are known by construction, so no root is solved for.
    """
    if not (1 <= q <= 2 * m):
        raise DomainError("need 1 <= q <= 2m")
    return _source_constellation(m, q, np.zeros((0, 2 * m + 1)))


def bundled_constellation(m):
    """The stock m-th constellation, of period 1, used by the sweep and the tests.

    A full ambiguity class of a generic signal (2m off-circle orbits, so
    2^(2m) members) plus two constant-envelope tones at distinct power
    levels. The tones add measurement diversity so neither information
    quantity is degenerate. The class is built from the signal's roots,
    which are known by construction, so no root is solved for.
    """
    if m < 1:
        raise UnsupportedOrder("bundled constellations start at m = 1")
    tones = np.zeros((2, 2 * m + 1), dtype=complex)
    tones[:, m] = (2.0, 3.0)
    return _source_constellation(m, 2 * m, tones)
