"""Command-line front end.

Subcommands map one-to-one onto library entry points: analyze (roots and
measurement of a signal), equiv (magnitude equivalence of two signals),
enumerate (ambiguity classes of a signal), factor (classes from a
measured sequence) and gap (information-loss experiment). Exit status 0
means every check passed, 2 means a theory bound or input-validation
check failed, 1 means an operational error such as unreadable input, an
unwritable output or an empty output path. Each error prints exactly one
line on stderr: "error: ..." with exit 1, "validation failure: ..." with
exit 2 (a failed bound check prints nothing there; its verdict is in the
report; a gap constellation outside the bound's premise is a validation
failure). Every output path is opened before anything is written, so an
unwritable one leaves no other output, and neither do two outputs naming
one file.

The reports and CSVs are written by sldlab.serialize; this module parses
the arguments, runs the command and writes its outputs to their files.

Root finding runs with one fixed configuration (roots._SEED, _ROOT_TOL
and _CIRCLE_BAND), which no flag changes. Reports embed it and the
library version but no file paths, so identical inputs and flags give
identical bytes wherever the files live.
"""

import argparse
import functools
import os
import stat
import sys
from dataclasses import asdict

from . import __version__
from .ambiguity import certify_bound, enumerate_classes, factor_sld
from .capacity import bundled_constellation, gap_experiment, require_premise
from .equivalence import numeric_magnitude_equiv, phase_equiv, struct_magnitude_equiv
from .errors import (
    DomainError,
    NegativeIntensity,
    NotAnAutocorrelation,
    OutsideGapPremise,
    SldLabError,
)
from .roots import _CIRCLE_BAND, _ROOT_TOL, _SEED, find_roots, pair_reciprocal
from .serialize import (
    class_csv,
    classset_dict,
    gap_csv,
    gap_dict,
    load_json,
    parse_autocorr,
    parse_constellation,
    parse_signal,
    render_report,
    rootset_dict,
    signal_dict,
)
from .signals import autocorrelation

# the fixed root-finding settings every report records, gap included
_SETTINGS = {"seed": _SEED, "tol_circle": _CIRCLE_BAND, "tol_root": _ROOT_TOL}


def _fingerprint(args):
    out = {"command": args.command, **_SETTINGS}
    if args.command == "gap" and args.sweep:
        out["sweep"] = args.sweep
    return out


def _write(*outputs):
    """Write (path, chunks) pairs, to stdout where the path is None.

    Every path is opened, in append mode, before the first chunk is made.
    So a path that cannot be opened leaves nothing behind: no text on
    stdout, no new file, and the files that were there as they were. Nor
    does a path naming the same regular file as stdout or an earlier path,
    whose second output would replace the first.
    """
    opened = []  # (handle, whether this call made the file)
    inodes = set()  # (st_dev, st_ino) of each output with a descriptor
    try:
        for path, _ in outputs:
            if path:
                new = not os.path.exists(path)
                opened.append((open(path, "a", encoding="utf-8"), new))
            try:
                fd = (opened[-1][0] if path else sys.stdout).fileno()
            except (AttributeError, OSError, ValueError):
                continue  # a stdout swapped for an object with no descriptor
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and (info.st_dev, info.st_ino) in inodes:
                raise OSError("it is the same file as another output")
            inodes.add((info.st_dev, info.st_ino))
    except OSError as exc:
        for handle, new in opened:
            handle.close()
            if new:
                os.remove(handle.name)
        raise SldLabError("cannot write %s: %s" % (path or "stdout", exc)) from exc
    files = (handle for handle, _ in opened)
    try:
        for path, chunks in outputs:
            if not path:
                sys.stdout.writelines(chunks)
                continue
            with next(files) as handle:
                # /dev/null or a pipe cannot be truncated, and on ext4 even
                # truncating an empty file made each write about 20x slower
                info = os.fstat(handle.fileno())
                if stat.S_ISREG(info.st_mode) and info.st_size:
                    handle.truncate(0)
                handle.writelines(chunks)
    finally:
        for handle, _ in opened:
            handle.close()


def _report(args, payload):
    """The report's text, rendered when it is first read."""
    yield render_report({"config": _fingerprint(args), "version": __version__, **payload})


def _emit(args, payload):
    _write((args.output, _report(args, payload)))


def _cmd_analyze(args):
    p = parse_signal(load_json(args.inputs[0]))
    r = find_roots(p.coeffs)
    table = pair_reciprocal(r)
    _emit(args, {
        "signal": signal_dict(p),
        "autocorrelation": signal_dict(autocorrelation(p)),
        "roots": rootset_dict(r),
        "orbits": [
            {
                "inner": [inner.real, inner.imag],
                "outer": [outer.real, outer.imag],
                "mult_inner": k_inner,
                "mult_outer": k_outer,
            }
            for inner, outer, k_inner, k_outer in table.orbits
        ],
        "origin_mult": table.origin,
    })
    return 0


def _cmd_equiv(args):
    p = parse_signal(load_json(args.inputs[0]))
    q = parse_signal(load_json(args.inputs[1]))
    structural = struct_magnitude_equiv(p.coeffs, q.coeffs)
    oracle = numeric_magnitude_equiv(p.coeffs, q.coeffs)
    phase = phase_equiv(p, q)
    agree = structural.related == oracle.related
    if agree and structural.related:
        agree = abs(structural.kappa - oracle.kappa) <= 1e-6 * max(oracle.kappa, 1e-300)
    verdict = asdict(structural)
    if phase.related:
        verdict["phase"] = phase.phase
    _emit(args, {
        "verdict": verdict,
        "oracle": asdict(oracle),
        "agree": bool(agree),
    })
    if not agree:
        print("validation failure: structural and lag-oracle verdicts disagree",
              file=sys.stderr)
        return 2
    return 0


def _cmd_classes(args):
    """enumerate (classes of a signal) and factor (classes of measured lags)."""
    doc = load_json(args.inputs[0])
    if args.command == "enumerate":
        cs = enumerate_classes(parse_signal(doc))
    else:
        cs = factor_sld(parse_autocorr(doc))
    report = certify_bound(cs)
    outputs = [(args.output, _report(args, {"classes": classset_dict(cs, report)}))]
    if args.csv:
        outputs.append((args.csv, class_csv(cs)))
    _write(*outputs)
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


def _cmd_gap(args):
    if args.sweep:
        lo, hi = _parse_sweep(args.sweep)
        reports = [require_premise(gap_experiment(bundled_constellation(m)))
                   for m in range(lo, hi + 1)]
        outputs = [(args.csv, gap_csv(reports))]
        if args.output:
            payload = {"reports": [gap_dict(r) for r in reports]}
            outputs.append((args.output, _report(args, payload)))
        _write(*outputs)
        return 0 if all(r.passed for r in reports) else 2
    c = parse_constellation(load_json(args.inputs[0]))
    report = require_premise(gap_experiment(c))
    _emit(args, {"gap": gap_dict(report)})
    return 0 if report.passed else 2


_COMMANDS = {
    "analyze": _cmd_analyze,
    "equiv": _cmd_equiv,
    "enumerate": _cmd_classes,
    "factor": _cmd_classes,
    "gap": _cmd_gap,
}


def _check(args):
    """Reject flag values and flag combinations argparse cannot."""
    # an empty path names no file, and the commands would read it as no flag
    for flag, path in (("--json", args.output), ("--csv", getattr(args, "csv", None))):
        if path == "":
            raise DomainError("%s needs a file path, not an empty string" % flag)
    if args.command == "gap":
        if args.sweep and args.inputs:
            raise DomainError("gap takes a constellation file or --sweep, not both")
        if not args.sweep and len(args.inputs) != 1:
            raise DomainError("gap needs a constellation file or --sweep")
        if not args.sweep and args.csv:
            raise DomainError("gap writes --csv only with --sweep")


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

    sub = parser.add_subparsers(dest="command", required=True)
    for name, nargs, parents, desc in (
        ("analyze", 1, [out], "roots, orbits and measurement of a signal"),
        ("equiv", 2, [out], "magnitude equivalence of two signals"),
        ("enumerate", 1, [out, csv], "ambiguity classes of a signal"),
        ("factor", 1, [out, csv], "signal classes of a measured sequence"),
        ("gap", "*", [out, csv], "information-loss report for a constellation"),
    ):
        p = sub.add_parser(name, parents=parents, help=desc)
        p.add_argument("inputs", nargs=nargs, metavar="FILE")
        if name == "gap":
            p.add_argument("--sweep", metavar="m=LO..HI",
                           help="run the bundled constellations instead of a file")
    return parser


def main(argv=None):
    """Run one sldlab command; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        _check(args)
        return _COMMANDS[args.command](args)
    except (NotAnAutocorrelation, NegativeIntensity, OutsideGapPremise) as exc:
        print("validation failure: %s" % exc, file=sys.stderr)
        return 2
    except SldLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
