"""Command-line front end.

Subcommands map one-to-one onto library entry points: analyze (roots and
measurement of a signal), equiv (magnitude equivalence of two signals),
enumerate (ambiguity classes of a signal), factor (classes from a
measured sequence), gap (information-loss experiment), transform
(invertible readout map round-trip). Exit status 0 means every check
passed, 2 means a theory bound or input-validation check failed, 1 means
an operational error such as unreadable input.

Reports embed the tolerance configuration and the library version but no
file paths, so identical inputs and flags give identical bytes wherever
the files live.
"""

import argparse
import functools
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .ambiguity import _canonical_rows, certify_bound, enumerate_classes, factor_sld
from .capacity import bundled_constellation, gap_experiment, measurement_transform
from .equivalence import numeric_magnitude_equiv, phase_equiv, struct_magnitude_equiv
from .errors import (
    DomainError,
    NegativeIntensity,
    NotAnAutocorrelation,
    SldLabError,
)
from .roots import find_roots, pair_reciprocal
from .serialize import (
    autocorr_dict,
    classset_dict,
    gap_dict,
    load_json,
    parse_autocorr,
    parse_constellation,
    parse_signal,
    render_report,
    rootset_dict,
    signal_dict,
    verdict_dict,
)
from .signals import autocorr_from_samples, autocorrelation, lift, screen_intensity

log = logging.getLogger("sldlab")

_MAPS = {
    "identity": (lambda x: x, lambda x: x),
    "sqrt": (np.sqrt, np.square),
}


@dataclass
class RunConfig:
    command: str
    inputs: tuple = ()
    output: str = None
    csv: str = None
    tol_circle: float = 1e-9
    tol_root: float = 1e-8
    round_digits: int = 7
    seed: int = 12345
    sweep: str = None
    map_name: str = "identity"
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if not (0 < self.tol_root <= 1e-4):
            raise DomainError("--tol-root must lie in (0, 1e-4]")
        if not (0 < self.tol_circle <= 1e-3):
            raise DomainError("--tol-circle must lie in (0, 1e-3]")
        if not (1 <= self.round_digits <= 15):
            raise DomainError("--round must lie in [1, 15]")

    def fingerprint(self):
        out = {
            "command": self.command,
            "seed": self.seed,
            "tol_circle": self.tol_circle,
            "tol_root": self.tol_root,
            "round": self.round_digits,
        }
        if self.command == "gap" and self.sweep:
            out["sweep"] = self.sweep
        if self.command == "transform":
            out["map"] = self.map_name
            if self.map_name == "affine":
                out["scale"] = self.scale
                out["offset"] = self.offset
        return out


def _emit(cfg, payload):
    text = render_report(
        {"config": cfg.fingerprint(), "version": __version__, **payload}
    )
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(cfg, chunks):
    """Write CSV text, chunk by chunk, to the --csv path or to stdout."""
    if cfg.csv:
        with open(cfg.csv, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


_SAMPLES = 64  # circle samples per representative in the class CSV
_CSV_CLASSES = 128  # representatives formatted per chunk


def _class_csv(cs):
    """Class CSV text in chunks: 64 circle samples per representative.

    Each representative's samples are the product sample_grid takes, with
    the phase matrix built once; the intensity is abs(z) ** 2 on Python
    complex values, so every cell matches sample_grid to the last digit.
    """
    yield "class,sample,t,re,im,intensity\n"
    period = cs.autocorr.period
    t = np.arange(_SAMPLES) * (period / _SAMPLES)
    k = np.arange(-cs.source_m, cs.source_m + 1)
    phases = np.exp(2j * np.pi * np.multiply.outer(t, k) / period)
    lead = ["%d,%r" % (j, tj) for j, tj in enumerate(t.tolist())]
    for lo in range(0, cs.exact_count, _CSV_CLASSES):
        block = cs.coeffs[lo : lo + _CSV_CLASSES]
        values = np.stack([phases @ row for row in block]).ravel()
        heads = ["%d,%s" % (idx, head) for idx in range(lo, lo + len(block)) for head in lead]
        intensity = [abs(z) ** 2 for z in values.tolist()]
        rows = zip(heads, map(repr, values.real.tolist()), map(repr, values.imag.tolist()),
                   map(repr, intensity))
        yield "\n".join(map(",".join, rows)) + "\n"


def _cmd_analyze(cfg):
    p = parse_signal(load_json(cfg.inputs[0]))
    f = lift(p)
    r = find_roots(f, tol=cfg.tol_root, circle_band=cfg.tol_circle, seed=cfg.seed)
    orbits, on_circle, origin = pair_reciprocal(r)
    log.info("analyze: degree %d, %d orbits, %d circle roots",
             r.degree, len(orbits), len(on_circle))
    _emit(cfg, {
        "signal": signal_dict(p),
        "autocorrelation": autocorr_dict(autocorrelation(p)),
        "roots": rootset_dict(r),
        "orbits": [
            {
                "inner": [orbit.inner.real, orbit.inner.imag],
                "outer": [orbit.outer.real, orbit.outer.imag],
                "mult_inner": orbit.mult_inner,
                "mult_outer": orbit.mult_outer,
            }
            for orbit in orbits
        ],
        "origin_mult": origin,
    })
    return 0


def _cmd_equiv(cfg):
    p = parse_signal(load_json(cfg.inputs[0]))
    q = parse_signal(load_json(cfg.inputs[1]))
    f, g = lift(p), lift(q)
    structural = struct_magnitude_equiv(
        f, g, root_tol=cfg.tol_root, circle_band=cfg.tol_circle, seed=cfg.seed
    )
    oracle = numeric_magnitude_equiv(f, g)
    phase = phase_equiv(p, q)
    agree = structural.related == oracle.related
    if agree and structural.related:
        agree = abs(structural.kappa - oracle.kappa) <= 1e-6 * max(oracle.kappa, 1e-300)
    verdict = verdict_dict(structural)
    if phase.related:
        verdict["phase"] = phase.phase
    _emit(cfg, {
        "verdict": verdict,
        "oracle": verdict_dict(oracle),
        "agree": bool(agree),
    })
    if not agree:
        log.error("structural and lag-oracle verdicts disagree")
        return 2
    return 0


def _cmd_enumerate(cfg):
    p = parse_signal(load_json(cfg.inputs[0]))
    cs = enumerate_classes(
        p,
        round_digits=cfg.round_digits,
        root_tol=cfg.tol_root,
        circle_band=cfg.tol_circle,
        seed=cfg.seed,
    )
    report = certify_bound(cs)
    _emit(cfg, {"classes": classset_dict(cs, report)})
    if cfg.csv:
        _write_csv(cfg, _class_csv(cs))
    return 0 if report.passed else 2


def _cmd_factor(cfg):
    s = parse_autocorr(load_json(cfg.inputs[0]))
    cs = factor_sld(
        s,
        round_digits=cfg.round_digits,
        root_tol=cfg.tol_root,
        circle_band=cfg.tol_circle,
        seed=cfg.seed,
    )
    report = certify_bound(cs)
    _emit(cfg, {"classes": classset_dict(cs, report)})
    if cfg.csv:
        _write_csv(cfg, _class_csv(cs))
    return 0 if report.passed else 2


def _parse_sweep(text):
    try:
        lo, hi = text.removeprefix("m=").split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise DomainError("--sweep expects the form m=1..4") from exc
    if not (1 <= lo <= hi):
        raise DomainError("--sweep range must satisfy 1 <= lo <= hi")
    return lo, hi


def _cmd_gap(cfg):
    if cfg.sweep:
        lo, hi = _parse_sweep(cfg.sweep)
        reports = [
            gap_experiment(bundled_constellation(m), cfg.round_digits)
            for m in range(lo, hi + 1)
        ]
        rows = [
            (r.m, r.i_xy, r.i_xs, r.per_dim_gap, r.bound) for r in reports
        ]
        _write_csv(cfg, ["m,i_xy,i_xs,per_dim_gap,bound\n"]
                   + [",".join(map(repr, row)) + "\n" for row in rows])
        if cfg.output:
            _emit(cfg, {"reports": [gap_dict(r) for r in reports]})
        return 0 if all(r.passed for r in reports) else 2
    c = parse_constellation(load_json(cfg.inputs[0]))
    report = gap_experiment(c, cfg.round_digits)
    _emit(cfg, {"gap": gap_dict(report)})
    return 0 if report.passed else 2


def _cmd_transform(cfg):
    s = parse_autocorr(load_json(cfg.inputs[0]))
    if cfg.map_name == "affine":
        if cfg.scale == 0:
            raise DomainError("affine map needs a nonzero --scale")
        phi = lambda x: cfg.scale * x + cfg.offset  # noqa: E731
        inv = lambda y: (y - cfg.offset) / cfg.scale  # noqa: E731
    else:
        phi, inv = _MAPS[cfg.map_name]
    samples = np.maximum(screen_intensity(s), 0.0)

    transformed = measurement_transform(samples, phi, inv)
    recovered = autocorr_from_samples(np.asarray(inv(transformed), dtype=float), s.m,
                                      period=s.period)
    roundtrip = float(np.abs(recovered.coeffs - s.coeffs).max())

    kw = dict(round_digits=cfg.round_digits, root_tol=cfg.tol_root,
              circle_band=cfg.tol_circle, seed=cfg.seed)
    original = factor_sld(s, **kw)
    rebuilt = factor_sld(recovered, **kw)
    match = original.exact_count == rebuilt.exact_count
    if match:
        ca, cb = _canonical_rows(original.coeffs), _canonical_rows(rebuilt.coeffs)
        energy = np.sum(np.abs(ca) ** 2, axis=1)
        match = not np.any(
            np.abs(ca - cb).max(axis=1) > 1e-6 * np.sqrt(np.maximum(energy, 1e-300))
        )
    _emit(cfg, {
        "map": cfg.map_name,
        "roundtrip_residual": roundtrip,
        "classes_original": original.exact_count,
        "classes_recovered": rebuilt.exact_count,
        "classes_match": bool(match),
    })
    return 0 if match else 2


_COMMANDS = {
    "analyze": (_cmd_analyze, 1),
    "equiv": (_cmd_equiv, 2),
    "enumerate": (_cmd_enumerate, 1),
    "factor": (_cmd_factor, 1),
    "gap": (_cmd_gap, None),  # input optional when sweeping
    "transform": (_cmd_transform, 1),
}


def run(cfg):
    """Execute one configured command; returns the process exit status."""
    handler, arity = _COMMANDS[cfg.command]
    try:
        if arity is not None and len(cfg.inputs) != arity:
            raise DomainError(
                "%s expects %d input file(s), got %d"
                % (cfg.command, arity, len(cfg.inputs))
            )
        if cfg.command == "gap" and cfg.sweep and cfg.inputs:
            raise DomainError("gap takes a constellation file or --sweep, not both")
        if cfg.command == "gap" and not cfg.sweep and len(cfg.inputs) != 1:
            raise DomainError("gap needs a constellation file or --sweep")
        if cfg.command == "gap" and not cfg.sweep and cfg.csv:
            raise DomainError("gap writes --csv only with --sweep")
        return handler(cfg)
    except (NotAnAutocorrelation, NegativeIntensity) as exc:
        log.error("%s", exc)
        print("validation failure: %s" % exc, file=sys.stderr)
        return 2
    except SldLabError as exc:
        log.error("%s", exc)
        print("error: %s" % exc, file=sys.stderr)
        return 1


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sldlab",
        description="Magnitude equivalence, ambiguity classes, and "
        "information-loss experiments for square-law detection.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # flag groups: each subcommand takes only the flags it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--json", dest="output", metavar="PATH",
                     help="write the JSON report here instead of stdout")
    csv = argparse.ArgumentParser(add_help=False)
    csv.add_argument("--csv", metavar="PATH",
                     help="write CSV artifacts here (sweep table or class samples)")
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument("--round", dest="round_digits", type=int, default=7,
                        help="decimal digits for deduplication keys (default 7)")
    roots = argparse.ArgumentParser(add_help=False)
    roots.add_argument("--tol-circle", type=float, default=1e-9,
                       help="on-circle classification band (default 1e-9)")
    roots.add_argument("--tol-root", type=float, default=1e-8,
                       help="root reconstruction tolerance (default 1e-8)")
    roots.add_argument("--seed", type=int, default=12345,
                       help="seed for the root-finder start points")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, nargs, parents, desc in (
        ("analyze", 1, [out, roots], "roots, orbits and measurement of a signal"),
        ("equiv", 2, [out, roots], "magnitude equivalence of two signals"),
        ("enumerate", 1, [out, csv, roots, digits], "ambiguity classes of a signal"),
        ("factor", 1, [out, csv, roots, digits], "signal classes of a measured sequence"),
        ("transform", 1, [out, roots, digits], "invertible readout-map round trip"),
        ("gap", "*", [out, csv, digits], "information-loss report for a constellation"),
    ):
        p = sub.add_parser(name, parents=parents, help=desc)
        p.add_argument("inputs", nargs=nargs, metavar="FILE")
        if name == "transform":
            p.add_argument("--map", dest="map_name", default="identity",
                           choices=("identity", "sqrt", "affine"))
            p.add_argument("--scale", type=float, default=1.0)
            p.add_argument("--offset", type=float, default=0.0)
        if name == "gap":
            p.add_argument("--sweep", metavar="m=LO..HI",
                           help="run the bundled constellations instead of a file")
    return parser


def main(argv=None):
    level = os.environ.get("SLD_LAB_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)
    fields = vars(args)
    fields.pop("version", None)
    inputs = tuple(fields.pop("inputs", ()) or ())
    try:
        cfg = RunConfig(inputs=inputs, **fields)
    except SldLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
