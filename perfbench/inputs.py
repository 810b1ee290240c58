"""Seeded benchmark inputs, built from drawn roots with numpy and exact integers.

Every input is a trigonometric polynomial of order m, stored as its
coefficient vector (b_-m, ..., b_m), which is also the lowest-first
coefficient vector of its lift, a polynomial of degree 2m. Roots are
snapped to a dyadic grid, so each lift is a product of linear factors with
Gaussian-integer coefficients. The product is formed exactly in Python
integers and rounded to floating point once per coefficient. Ground truth
built this way (a reflected root keeps the circle magnitude exactly, a
scale c gives the ratio exactly 1/c) survives into the written files to
within one rounding, whatever the degree.

Nothing here imports sldlab: the program only ever sees the JSON files.
"""

import json
from fractions import Fraction

import numpy as np

GRID_BITS = 30  # roots live on the grid 2^-30 (Z + iZ)


def _snap(z):
    scale = 1 << GRID_BITS
    return int(round(z.real * scale)), int(round(z.imag * scale))


def _factors(roots, reflect):
    """Linear factors (u z + v) with Gaussian-integer u and v.

    A kept root a = (p + iq) / 2^B contributes 2^B z - (p + iq). A reflected
    root contributes (p - iq) z - 2^B, which is conj(a) z - 1 scaled by 2^B:
    its root is 1 / conj(a) and its magnitude on |z| = 1 equals |z - a|.
    """
    one = 1 << GRID_BITS
    out = []
    for root, flip in zip(roots, reflect):
        p, q = _snap(root)
        out.append(((p, -q), (-one, 0)) if flip else ((one, 0), (-p, -q)))
    return out


def _expand(factors):
    """Exact lowest-first coefficients of a product of linear factors."""
    re, im = [1], [0]
    for (ur, ui), (vr, vi) in factors:
        n = len(re)
        new_re, new_im = [0] * (n + 1), [0] * (n + 1)
        for j in range(n):
            a, b = re[j], im[j]
            new_re[j] += vr * a - vi * b
            new_im[j] += vr * b + vi * a
            new_re[j + 1] += ur * a - ui * b
            new_im[j + 1] += ur * b + ui * a
        re, im = new_re, new_im
    return re, im


def _to_float(re, im, scale):
    """Round scale * (re + i im) to complex floats, once per coefficient."""
    return np.array(
        [complex(float(scale * a), float(scale * b)) for a, b in zip(re, im)]
    )


def _unit_scale(re, im):
    """A power of two that brings the largest coefficient near one (exact)."""
    bits = max(max(abs(v) for v in re), max(abs(v) for v in im)).bit_length()
    return Fraction(1, 1 << bits)


def separated_roots(rng, count):
    """count simple roots at distinct angles, each inside or outside the circle.

    One root per angular slot, jittered inside the middle of the slot, so no
    two roots share an angle and none is the reflection of another. That is
    what makes the lift generic: 2^count ambiguity classes.
    """
    slot = 2 * np.pi / count
    angles = slot * (np.arange(count) + rng.uniform(0.2, 0.8, count))
    radii = rng.uniform(0.4, 0.8, count)
    outside = rng.random(count) < 0.5
    radii = np.where(outside, 1.0 / radii, radii)
    return radii * np.exp(1j * angles)


def squeeze(roots, s):
    """Move every root toward the circle: |z| -> |z|^(1 - s), angle kept."""
    return np.abs(roots) ** (1.0 - s) * np.exp(1j * np.angle(roots))


def loose_roots(rng, count):
    """count roots with uniform angles and log-radius uniform in [-0.7, 0.7]."""
    angles = rng.uniform(0.0, 2 * np.pi, count)
    return np.exp(rng.uniform(-0.7, 0.7, count)) * np.exp(1j * angles)


def signal_from_roots(roots):
    """Coefficients of the order-m signal whose lift has these 2m roots."""
    re, im = _expand(_factors(roots, [False] * len(roots)))
    return _to_float(re, im, _unit_scale(re, im))


def autocorrelation(b):
    """Square-law measurement lags c_-2m..c_2m of a coefficient vector."""
    return np.convolve(b, np.conj(b[::-1]))


def related_pair(rng, roots):
    """(f, g, kappa) with |f| = kappa |g| on the circle, by construction.

    g reflects a random subset of the roots of f, is scaled by a random
    rational c in [1/2, 2] and rotated by a random power of i, so the
    intensity ratio is exactly kappa = 1/c.
    """
    count = len(roots)
    keep_re, keep_im = _expand(_factors(roots, [False] * count))
    flips = list(rng.random(count) < 0.5)
    flip_re, flip_im = _expand(_factors(roots, flips))
    c = Fraction(int(rng.integers(64, 257)), 128)
    turn = int(rng.integers(4))
    for _ in range(turn):  # multiply by i
        flip_re, flip_im = [-v for v in flip_im], flip_re
    unit = _unit_scale(keep_re, keep_im)
    f = _to_float(keep_re, keep_im, unit)
    g = _to_float(flip_re, flip_im, unit * c)
    return f, g, float(1 / c)


def _pairs(vec):
    return [[float(z.real), float(z.imag)] for z in vec]


def write_signal(path, b):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"m": (len(b) - 1) // 2, "coeffs": _pairs(b)}, handle)


def write_measurement(path, c):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"m": (len(c) - 1) // 4, "coeffs": _pairs(c)}, handle)
