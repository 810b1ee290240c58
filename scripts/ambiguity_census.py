"""Census of ambiguity-class counts over random signal draws.

Draws complex Gaussian coefficient vectors, enumerates the classes that
share each signal's intensity waveform, and histograms the counts against
the 2^(2m+1) ceiling. Degenerate draws (circle roots, repeated orbits)
show up as counts below the generic 2^(2m) value; with Gaussian draws
they are rare, so --near-circle can push roots toward the circle to make
the degenerate tail visible.
"""

import argparse
import collections
import sys

import numpy as np

from sldlab import TrigPoly, certify_bound, enumerate_classes, find_roots


def draw_signal(rng, m, squeeze):
    coeffs = rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1)
    if squeeze <= 0:
        return TrigPoly(m=m, coeffs=coeffs)
    # pull every root radially toward the circle by the squeeze factor
    r = find_roots(coeffs)
    out = np.array([complex(r.leading_coeff)])
    for _ in range(r.origin_mult):
        out = np.convolve(out, np.array([0.0j, 1.0 + 0j]))
    for location, k in zip(r.locations.tolist(), r.multiplicities.tolist()):
        radius = abs(location) ** (1.0 - squeeze)
        z = radius * location / abs(location)
        for _ in range(k):
            out = np.convolve(out, np.array([-z, 1.0 + 0j]))
    out = np.pad(out, (0, 2 * m + 1 - len(out)))
    return TrigPoly(m=m, coeffs=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=2, help="signal order")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--near-circle", type=float, default=0.0, metavar="S",
                    help="squeeze roots toward |z|=1 by this fraction")
    args = ap.parse_args(argv)
    if not (0 <= args.near_circle < 1):
        ap.error("--near-circle must lie in [0, 1)")

    rng = np.random.default_rng(args.seed)
    counts = collections.Counter()
    worst = 0.0
    for _ in range(args.trials):
        p = draw_signal(rng, args.m, args.near_circle)
        cs = enumerate_classes(p)
        counts[cs.exact_count] += 1
        worst = max(worst, certify_bound(cs).max_residual)

    bound = 2 ** (2 * args.m + 1)
    generic = 2 ** (2 * args.m)
    print("m=%d  trials=%d  bound=%d  generic=%d" % (
        args.m, args.trials, bound, generic))
    for count in sorted(counts):
        bar = "#" * int(round(40 * counts[count] / args.trials))
        tag = " (generic)" if count == generic else ""
        print("%5d classes: %5d %s%s" % (count, counts[count], bar, tag))
    print("worst relative residual %.3g" % worst)
    over = sum(v for k, v in counts.items() if k > bound)
    print("draws over the ceiling: %d" % over)
    return 0 if over == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
