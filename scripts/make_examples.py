"""Write the JSON input files used in the README walkthrough.

Emits a small set of signals, a measured autocorrelation, and a
constellation under --out-dir, each in the schema the CLI consumes.
"""

import argparse
import json
import pathlib
import sys

import numpy as np

from sldlab import TrigPoly, autocorrelation
from sldlab.serialize import render_report, signal_dict


def pair(z):
    z = complex(z)
    return [z.real, z.imag]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="data", help="destination directory")
    args = ap.parse_args(argv)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    two_orbit = TrigPoly(m=1, coeffs=[6.0, -5.0, 1.0])
    shifted = TrigPoly(m=1, coeffs=[0.0, 1.0, 1.0])
    flipped = TrigPoly(m=1, coeffs=[3.0, -7.0, 2.0])  # one root reflected
    files = {
        "two_orbit.json": signal_dict(two_orbit),
        "shifted_pair.json": signal_dict(shifted),
        "flipped_partner.json": signal_dict(flipped),
        "measured.json": signal_dict(autocorrelation(two_orbit)),
        "tone_constellation.json": {
            "m": 1,
            "points": [
                {"coeffs": [pair(0), pair(2), pair(0)], "probability": 0.5},
                {"coeffs": [pair(0), pair(3), pair(0)], "probability": 0.5},
            ],
        },
        "split_pair_constellation.json": {
            "m": 1,
            "points": [
                {"coeffs": [pair(0), pair(1), pair(1)], "probability": 0.25},
                {"coeffs": [pair(1), pair(1), pair(0)], "probability": 0.25},
                {"coeffs": [pair(0), pair(2), pair(0)], "probability": 0.25},
                {"coeffs": [pair(0), pair(0), pair(2)], "probability": 0.25},
            ],
        },
    }
    for name, payload in files.items():
        path = out / name
        path.write_text(render_report(payload), encoding="utf-8")
        print("wrote", path)

    # quick sanity pass so a broken write is caught here, not by the CLI
    for name in files:
        json.loads((out / name).read_text(encoding="utf-8"))
    check = autocorrelation(two_orbit).coeffs
    assert np.abs(check - np.array([6, -35, 62, -35, 6])).max() < 1e-12
    return 0


if __name__ == "__main__":
    sys.exit(main())
