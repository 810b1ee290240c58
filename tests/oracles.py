"""Reference implementations the tests trust over the package.

Everything here is deliberately naive: double loops, dense grids,
exhaustive search. Slow is fine; independent is the point. None of
these call into sldlab.
"""

import csv
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np


def autocorr_loops(b):
    """Lag products by explicit index shuffling, O(n^2)."""
    b = [complex(x) for x in b]
    n = len(b)
    top = n - 1
    out = []
    for k in range(-top, top + 1):
        acc = 0j
        for j in range(n):
            if 0 <= j - k < n:
                acc += b[j] * b[j - k].conjugate()
        out.append(acc)
    return np.array(out)


def eval_series(b, m, t, period=1.0):
    """Direct term-by-term Fourier synthesis, no Horner, no vectorizing."""
    acc = 0j
    for idx, coeff in enumerate(b):
        k = idx - m
        acc += complex(coeff) * complex(math.cos(2 * math.pi * k * t / period),
                                        math.sin(2 * math.pi * k * t / period))
    return acc


def intensity_series(b, m, t, period=1.0):
    return abs(eval_series(b, m, t, period)) ** 2


def poly_powersum(coeffs, z):
    """Evaluate sum a_k z^k by literal powers."""
    return sum(complex(a) * complex(z) ** k for k, a in enumerate(coeffs))


def kappa_grid(f_coeffs, g_coeffs, n=4096):
    """Median of |f|/|g| over a dense unit-circle grid.

    The median shrugs off the handful of samples that land near common
    circle zeros; if f and g really have proportional magnitudes the
    ratio is constant wherever it is finite.
    """
    theta = 2 * np.pi * (np.arange(n) + 0.31) / n
    z = np.exp(1j * theta)
    fv = np.array([poly_powersum(f_coeffs, w) for w in z])
    gv = np.array([poly_powersum(g_coeffs, w) for w in z])
    keep = np.abs(gv) > 1e-9 * np.abs(gv).max()
    return float(np.median(np.abs(fv[keep]) / np.abs(gv[keep])))


def ratio_is_flat(f_coeffs, g_coeffs, n=4096, rel=1e-6):
    """True when |f|/|g| is constant across the circle grid."""
    theta = 2 * np.pi * (np.arange(n) + 0.31) / n
    z = np.exp(1j * theta)
    fv = np.abs(np.array([poly_powersum(f_coeffs, w) for w in z]))
    gv = np.abs(np.array([poly_powersum(g_coeffs, w) for w in z]))
    keep = gv > 1e-7 * gv.max()
    r = fv[keep] / gv[keep]
    mid = np.median(r)
    return bool(np.all(np.abs(r - mid) <= rel * max(mid, 1e-30)))


def _gauss_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gauss_product(factors):
    """Exact lowest-first coefficients of prod (u z + v), Gaussian-integer u, v."""
    coeffs = [(1, 0)]
    for u, v in factors:
        up = [(0, 0)] + [_gauss_mul(u, c) for c in coeffs]
        vp = [_gauss_mul(v, c) for c in coeffs] + [(0, 0)]
        coeffs = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(up, vp)]
    return coeffs


def gaussian_integer_pair(rng, degree, related, bits=30):
    """(f, g, kappa): two exactly built polynomials of the given degree.

    Roots have uniform angles and log-radii in [-0.7, 0.7], snapped to the
    grid 2^-bits (Z + iZ), so each linear factor has Gaussian-integer
    coefficients and the products are exact integers, rounded to floats
    once per coefficient. A related g reflects a random subset of the roots
    of f (the factor conj(a) z - 1 has the circle magnitude of z - a), is
    scaled by a rational c in [1/2, 2] and turned by a power of i, so
    |f| = kappa |g| with kappa = 1/c exactly. An independent g has roots
    of its own and kappa None.
    """
    one = 1 << bits

    def draw():
        z = np.exp(rng.uniform(-0.7, 0.7, degree) + 2j * np.pi * rng.random(degree))
        return [(int(round(w.real * one)), int(round(w.imag * one))) for w in z]

    def to_float(coeffs, scale):
        return np.array([complex(float(scale * a), float(scale * b)) for a, b in coeffs])

    roots = draw()
    f = _gauss_product([((one, 0), (-p, -q)) for p, q in roots])
    unit = Fraction(1, 1 << max(max(abs(a), abs(b)) for a, b in f).bit_length())
    if not related:
        g = _gauss_product([((one, 0), (-p, -q)) for p, q in draw()])
        return to_float(f, unit), to_float(g, unit), None
    flips = rng.random(degree) < 0.5
    g = _gauss_product([
        ((p, -q), (-one, 0)) if flip else ((one, 0), (-p, -q))
        for (p, q), flip in zip(roots, flips)
    ])
    for _ in range(int(rng.integers(4))):
        g = [(-b, a) for a, b in g]
    c = Fraction(int(rng.integers(64, 257)), 128)
    return to_float(f, unit), to_float(g, unit * c), float(1 / c)


def equiv_battery(seed=1, count=16):
    """Seeded pairs of even degree 20-80, alternately related and independent."""
    rng = np.random.default_rng(seed)
    return [
        gaussian_integer_pair(rng, 2 * int(rng.integers(10, 41)), i % 2 == 0)
        for i in range(count)
    ]


def entropy_loop(probs):
    acc = 0.0
    for p in probs:
        if p > 0:
            acc -= p * math.log2(p)
    return acc


def _phase_canon(vec, tol=1e-9):
    """Divide out the phase of the first non-negligible entry."""
    vec = np.asarray(vec, dtype=complex)
    scale = np.abs(vec).max()
    for x in vec:
        if abs(x) > tol * scale:
            return vec * (abs(x) / x)
    raise ValueError("zero vector has no phase")


def lattice_ambiguity(c_target, lattice, n, tol=1e-6):
    """Exhaustive magnitude-match search over a finite coefficient lattice.

    Walks every length-n vector with entries drawn from `lattice`, keeps
    the ones whose autocorrelation matches c_target, and groups the
    survivors by global phase. Returns one canonical representative per
    group. Exponential in n; callers keep n at 5 or below.
    """
    c_target = np.asarray(c_target, dtype=complex)
    lattice = np.asarray(lattice, dtype=complex)
    grids = np.meshgrid(*([lattice] * n), indexing="ij")
    batch = np.stack([g.ravel() for g in grids], axis=1)
    top = n - 1
    lags = np.zeros((batch.shape[0], 2 * n - 1), dtype=complex)
    for k in range(-top, top + 1):
        lo, hi = max(0, k), min(n, n + k)
        if lo < hi:
            lags[:, k + top] = np.sum(
                batch[:, lo:hi] * np.conj(batch[:, lo - k:hi - k]), axis=1
            )
    scale = max(np.abs(c_target).max(), 1.0)
    hit = np.max(np.abs(lags - c_target), axis=1) <= tol * scale
    reps = {}
    for row in batch[hit]:
        canon = _phase_canon(row)
        key = tuple(np.round(canon.real, 6) + 0.0) + tuple(np.round(canon.imag, 6) + 0.0)
        reps.setdefault(key, canon)
    return list(reps.values())


def phase_match(u, v, tol=1e-6):
    """True when v == e^{i phi} u for some global phi."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        return False
    nu, nv = np.abs(u).max(), np.abs(v).max()
    if nu == 0 or nv == 0:
        return nu == nv
    try:
        cu, cv = _phase_canon(u / nu), _phase_canon(v / nv)
    except ValueError:
        return False
    return bool(np.abs(cu - cv).max() <= tol)


def same_class_sets(reps_a, reps_b, tol=1e-6):
    """Set equality of two representative lists under phase matching."""
    if len(reps_a) != len(reps_b):
        return False
    used = [False] * len(reps_b)
    for a in reps_a:
        for j, b in enumerate(reps_b):
            if not used[j] and phase_match(a, b, tol):
                used[j] = True
                break
        else:
            return False
    return True


def binary_entropy(eps):
    return entropy_loop([eps, 1.0 - eps])


def first_duplicate_scan(rows):
    """First pair (i, j), i < j in row-major order, of coinciding rows, or None.

    The pairwise block scan: rows coincide when their largest coefficient
    gap is within 1e-12 * sqrt(E) for the larger of their two energies.
    """
    mat = np.asarray(rows, dtype=complex)
    energy = np.sum(np.abs(mat) ** 2, axis=1)
    n = len(mat)
    step = max(1, 4_000_000 // (mat.shape[1] * n))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        gap = np.abs(mat[lo:hi, None, :] - mat[None, :, :]).max(axis=2)
        band = 1e-12 * np.sqrt(np.maximum(energy[lo:hi, None], energy[None, :]))
        for row, col in zip(*np.nonzero(gap <= band)):
            i, j = lo + int(row), int(col)
            if i < j:
                return i, j
    return None


def autocorr_dot(b):
    # one dot product per lag, mirrored, then the Hermitian clean-up the
    # measurement sequence applies on construction
    width = len(b)
    c = np.zeros(2 * width - 1, dtype=complex)
    for k in range(width):
        overlap = b[k:] @ np.conj(b[: width - k])
        c[width - 1 + k] = overlap
        c[width - 1 - k] = np.conj(overlap)
    c = 0.5 * (c + np.conj(c[::-1]))
    c[width - 1] = max(c[width - 1].real, 0.0)
    return c


def deviations_loop(rows, target):
    """Largest |c_k - target_k| over all 4m+1 lags k = -2m..2m of each row,
    its lags c taken from autocorr_dot one row at a time."""
    target = np.asarray(target, dtype=complex)
    return np.array([np.abs(autocorr_dot(b) - target).max()
                     for b in np.asarray(rows, dtype=complex)])


def round_keys_loop(vectors, digits):
    """Per-vector bin keys on the largest modulus of the whole batch."""
    scale = max((float(np.abs(v).max()) for v in vectors), default=1.0) or 1.0
    keys = []
    for vec in vectors:
        v = np.asarray(vec) / scale
        keys.append((np.round(v.real, digits) + 0.0).tobytes()
                    + (np.round(v.imag, digits) + 0.0).tobytes())
    return keys


def sld_keys_loop(rows, digits=7):
    """Measurement bin keys, one autocorrelation per signal."""
    return round_keys_loop([autocorr_dot(np.asarray(b, dtype=complex)) for b in rows],
                           digits)


def rotate_dc_loop(b, grid_m):
    """One signal rotated so its DC argument sits on the grid_m-point grid.

    The angle is the floor quantizer's, on Python scalars: theta is the
    DC argument with +pi folded to -pi, the turn is
    floor((theta + pi/grid_m) / step) * step - theta. A zero DC
    coefficient passes through.
    """
    b = np.asarray(b, dtype=complex)
    dc = complex(b[len(b) // 2])
    if dc == 0:
        return b
    step = float(2 * np.pi / grid_m)
    theta = float(np.angle(dc))
    if theta == np.pi:
        theta = -np.pi
    turn = math.floor((theta + np.pi / grid_m) / step) * step - theta
    return b * np.exp(1j * turn)


def z_keys_loop(rows, m, digits=7):
    """Bin keys of each signal after rotating its DC argument onto the m-grid."""
    return round_keys_loop([rotate_dc_loop(b, m) for b in rows], digits)


def canonical_phase(coeffs):
    """Rotate so the first coefficient above 1e-12 of the top is positive real.

    The per-vector rule: no rotation when the pivot angle is within 1e-12,
    and the pivot pinned to its modulus unless it is already positive real.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    mags = np.abs(coeffs)
    top = mags.max()
    if top == 0:
        raise ValueError("zero vector has no phase")
    j = int(np.nonzero(mags > 1e-12 * top)[0][0])
    pivot = complex(coeffs[j])
    phi = float(np.angle(pivot))
    if abs(phi) <= 1e-12:
        if pivot.imag == 0.0 and pivot.real > 0.0:
            return coeffs
        rotated = coeffs.copy()
    else:
        rotated = coeffs * np.exp(-1j * phi)
    rotated[j] = abs(pivot)
    return rotated


def assemble_classes_loop(leading, orbit_table, circle_coeffs, shift_hi, m, cap):
    """Class assembly one candidate at a time, over itertools.product.

    orbit_table holds one (parts, scales) pair per orbit. Each candidate
    convolves leading with one part per orbit and with circle_coeffs,
    multiplies by the product of the part scales, and is placed at every
    origin shift. Returns the canonical rows in that order, product first,
    then shift. Raises ValueError past cap or past degree 2m.
    """
    choices = [list(zip(parts, scales)) for parts, scales in orbit_table]
    total = (shift_hi + 1) * math.prod(len(c) for c in choices)
    if total > cap:
        raise ValueError("%d candidate specs exceed the cap of %d" % (total, cap))
    width = 2 * m + 1
    rows = []
    for picks in itertools.product(*choices):
        coeffs = np.array([leading], dtype=complex)
        scale = 1.0
        for part, s in picks:
            coeffs = np.convolve(coeffs, part)
            scale *= s
        coeffs = np.convolve(coeffs, circle_coeffs) * scale
        for shift in range(shift_hi + 1):
            if shift + len(coeffs) > width:
                raise ValueError("candidate degree exceeds 2m = %d" % (2 * m))
            row = np.zeros(width, dtype=complex)
            row[shift : shift + len(coeffs)] = coeffs
            rows.append(canonical_phase(row))
    return rows


def class_csv_text(reps, m, period, samples=64):
    """The class CSV written row by row with csv.writer.

    Each representative is synthesized on `samples` uniform times by one
    product with the phase matrix, and its intensity is abs() ** 2 of each
    numpy sample.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("class", "sample", "t", "re", "im", "intensity"))
    k = np.arange(-m, m + 1)
    for idx, coeffs in enumerate(reps):
        t = np.arange(samples) * (period / samples)
        values = np.exp(2j * np.pi * np.multiply.outer(t, k) / period) @ coeffs
        for j in range(samples):
            row = (idx, j, float(t[j]), float(values[j].real), float(values[j].imag),
                   float(abs(values[j]) ** 2))
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buffer.getvalue()


def union_find_groups(points, tol):
    """Index groups of points chained by |a - b| <= tol * (1 + (|a| + |b|) / 2).

    The pairwise union-find over every pair i < j. Groups come in order of
    their smallest member, members in index order.
    """
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(points[i] - points[j])
            scale = 1.0 + 0.5 * (abs(points[i]) + abs(points[j]))
            if gap <= tol * scale:
                parent[find(i)] = find(j)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def complex_vector_loop(pairs):
    """Coefficient vector of [re, im] pairs, one complex() per pair."""
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def first_ids_loop(keys):
    """Group id per key, numbered by first appearance, and each group's
    first index, by one dict lookup per key."""
    seen, ids, first = {}, [], []
    for i, key in enumerate(keys):
        if key not in seen:
            seen[key] = len(first)
            first.append(i)
        ids.append(seen[key])
    return ids, first


def merge_columns_loop(joint, keys):
    """Columns of joint summed per key, one column at a time.

    Groups come in first-appearance order of their keys, and each group's
    columns are added in index order.
    """
    ids, first = first_ids_loop(keys)
    merged = np.zeros((joint.shape[0], len(first)))
    for col, group in enumerate(ids):
        merged[:, group] += joint[:, col]
    return merged


def pairwise_groups(rows, radii):
    """Group id per row, numbered by first appearance, by a union-find over
    every pair: rows i and j link when max_k |a_ik - a_jk| <= max(r_i, r_j).

    Quick-find: label[x] names the group of row x, row i is compared with
    every later row at once, and each union relabels a whole group.
    """
    rows = np.asarray(rows, dtype=complex)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), (len(rows),))
    label = np.arange(len(rows))
    for i in range(len(rows)):
        gap = np.abs(rows[i + 1 :] - rows[i]).max(axis=1)
        partners = np.flatnonzero(gap <= np.maximum(radii[i + 1 :], radii[i])) + i + 1
        for group in np.unique(label[partners]):
            label[label == group] = label[i]
    return first_ids_loop(label.tolist())[0]


def complex_pairs_loop(vec):
    """[re, im] pairs of a complex vector, one complex() per element."""
    out = []
    for z in np.asarray(vec):
        z = complex(z)
        out.append([float(z.real), float(z.imag)])
    return out


class Unsettled(Exception):
    """find_roots_loop's budget ran out; carries the final relative residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def _horner_loop(coeffs, z):
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _horner_scale_loop(coeffs, az):
    out = np.zeros_like(az)
    for c in np.abs(coeffs)[::-1]:
        out = out * az + c
    return out


def find_roots_loop(coeffs, tol=1e-8, circle_band=1e-9, cluster_radius=1e-6,
                    max_iter=200, seed=12345):
    """One polynomial's roots by the simultaneous iteration on its own.

    Ascending coefficients in; (roots, origin_mult, degree, leading_coeff)
    out, where roots is a sorted list of (location, multiplicity, label,
    diameter). Horner passes one coefficient at a time, the full Aberth
    step with a zero step for settled roots, one Newton polish, and
    clusters merged by union_find_groups with numpy's mean. Raises
    Unsettled when the relative residual exceeds tol or is NaN.
    """
    coeffs = np.array(coeffs, dtype=complex)
    top = np.abs(coeffs).max()
    keep = np.abs(coeffs) > 1e-13 * top
    deg = int(np.nonzero(keep)[0][-1])
    origin = int(np.nonzero(keep)[0][0])
    core = coeffs[origin : deg + 1]
    d = len(core) - 1
    leading = complex(core[-1])
    if d == 0:
        return [], origin, origin, leading

    a = core / core[-1]
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * (np.arange(d) + 0.25 * rng.random(d)) / d
    radii = 1.0 + 0.2 * (rng.random(d) - 0.5)
    z = radii * np.exp(1j * angles)
    da = a[1:] * np.arange(1, d + 1)
    eps_stop = 8 * np.finfo(float).eps
    for _ in range(max_iter):
        pz = _horner_loop(a, z)
        sz = _horner_scale_loop(a, np.abs(z)) + np.finfo(float).tiny
        converged = np.abs(pz) <= eps_stop * sz
        if converged.all():
            break
        dpz = _horner_loop(da, z)
        dpz = np.where(dpz == 0, np.finfo(float).tiny, dpz)
        w = pz / dpz
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        s = inv.sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, np.finfo(float).tiny, denom)
        step = np.where(converged, 0.0, w / denom)
        z = z - step

    pz = _horner_loop(a, z)
    dpz = _horner_loop(da, z)
    safe = np.abs(dpz) > 0
    z = np.where(safe, z - pz / np.where(safe, dpz, 1.0), z)
    pz = _horner_loop(a, z)
    sz = _horner_scale_loop(a, np.abs(z)) + np.finfo(float).tiny
    rel = np.abs(pz) / sz
    if not (rel.max() <= tol):
        raise Unsettled("simultaneous iteration did not settle within %d steps" % max_iter,
                        float(rel.max()))

    roots = []
    for idx in union_find_groups([complex(x) for x in z], cluster_radius):
        pts = z[idx]
        loc = complex(np.mean(pts))
        gaps = pts[:, None] - pts[None, :]
        diam = float(np.hypot(gaps.real, gaps.imag).max())
        band = max(circle_band, 0.5 * diam)
        label = ("inside" if abs(loc) < 1.0 - band
                 else "outside" if abs(loc) > 1.0 + band else "on_circle")
        roots.append((loc, len(idx), label, diam))
    roots.sort(key=lambda r: (r[0].real, r[0].imag))
    return roots, origin, deg, leading


def _reflect(alpha):
    return 1.0 / np.conj(complex(alpha))


def orbit_groups_loop(multisets, match_tol):
    """Reflection orbits of the off-circle roots of root multisets.

    Each multiset needs .roots of items with .location, .multiplicity and
    .label. Orbit keys (the inside-disk point of each reflection pair) are
    grouped by union_find_groups and averaged with numpy's mean. Returns
    (inner, outer, counts) sorted by inner, counts holding one [inside,
    outside] multiplicity pair per multiset.
    """
    off = [(k, root) for k, r in enumerate(multisets)
           for root in r.roots if root.label != "on_circle"]
    keys = [complex(root.location if abs(root.location) < 1.0 else _reflect(root.location))
            for _, root in off]
    orbits = []
    for idx in union_find_groups(keys, match_tol):
        counts = [[0, 0] for _ in multisets]
        locs = ([], [])
        for i in idx:
            k, root = off[i]
            side = 0 if root.label == "inside" else 1
            counts[k][side] += root.multiplicity
            locs[side].append(root.location)
        inner = complex(np.mean(locs[0])) if locs[0] else _reflect(complex(np.mean(locs[1])))
        outer = complex(np.mean(locs[1])) if locs[1] else _reflect(inner)
        orbits.append((inner, outer, counts))
    orbits.sort(key=lambda o: (o[0].real, o[0].imag))
    return orbits


_encode_one = json.JSONEncoder(sort_keys=True).encode


def _render_rows(obj, pad):
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = (_encode_one(key) + ": " + _render_rows(obj[key], inner) for key in sorted(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        items = (_encode_one(item) if isinstance(item, (list, tuple))
                 else _render_rows(item, inner) for item in obj)
    else:
        return _encode_one(obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


def render_report_loop(payload):
    """Report text with one C-encoder call per scalar and per row.

    Sorted keys and an indent of 2, except that a list or tuple inside a
    list is written on one line; one trailing newline.
    """
    return _render_rows(payload, "") + "\n"
