"""The four benchmark workloads: their inputs, CLI ops and output checks.

Each workload turns a seed into a pool of items. One op runs the item's
CLI commands through sldlab.cli.main in this process. The checks below use
numpy only and compare every report with ground truth known by
construction, so they never trust sldlab's own verification.

An op ends in one of five outcomes:

- "raised":   an exception escaped main, which maps every error it
              expects to an exit status;
- "unstable": the report bytes differ from an earlier report of the
              same item in this run;
- "refused":  a command exited non-zero;
- "wrong":    every command exited 0 but the answer contradicts the
              ground truth (a confidently wrong answer);
- "ok".
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import inputs

RESIDUAL_TOL = 1e-8  # representative autocorrelation vs measurement, times c0
CLASS_SET_TOL = 1e-5  # enumerate vs factor representatives, up to global phase
KAPPA_TOL = 1e-6  # reported kappa vs 1/c, relative
GAP_TOL = 1e-9  # gap rows vs closed forms
CSV_SAMPLES = 64  # circle samples per class in the enumerate CSV


@dataclass
class Item:
    """One input of a workload: the commands of an op and its ground truth."""

    argvs: list
    outputs: list
    truth: dict
    check: object
    digests: tuple = None
    status: str = None
    classes: int = 0


@dataclass
class Outcome:
    status: str
    seconds: float
    ref_seconds: float = None
    classes: int = 0
    detail: str = ""


def run_op(main, item, pace=None):
    """Run one op: every command of the item, timed end to end.

    With a pace.Pace, the kernel samples it takes during the op are taken
    off the wall time, and the op also gets its time in reference seconds.
    """
    for path in item.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    codes = []
    sink = io.StringIO()
    raised = None
    with pace or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in item.argvs:
                    codes.append(main(argv))
        except (Exception, SystemExit) as exc:  # the CLI must map its errors to exit codes
            raised = exc
        elapsed = time.perf_counter() - start
    if pace is not None:
        elapsed -= pace.spent
    ref = pace.convert(elapsed) if pace is not None else None
    if raised is not None:
        return Outcome("raised", elapsed, ref, detail=repr(raised)[:200])

    blobs = []
    for path in item.outputs:
        try:
            with open(path, "rb") as handle:
                blobs.append(handle.read())
        except FileNotFoundError:
            blobs.append(b"")
    digests = tuple(hashlib.sha256(b).hexdigest() for b in blobs)
    if item.digests is not None:
        if digests != item.digests:
            return Outcome("unstable", elapsed, ref, detail="report bytes changed")
        return Outcome(item.status, elapsed, ref, classes=item.classes)
    item.digests = digests
    if any(code != 0 for code in codes):
        detail = "exit codes %s %s" % (codes, sink.getvalue().strip()[-160:])
        status, classes = "refused", 0
    else:
        try:
            problem, classes = item.check(item, blobs)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem, classes = "unreadable report: %r" % exc, 0
        status, detail = ("wrong", problem) if problem else ("ok", "")
    item.status, item.classes = status, classes
    return Outcome(status, elapsed, ref, classes=classes, detail=detail)


# ---------------------------------------------------------------- checks


def _reps(report):
    classes = report["classes"]
    reps = np.array(
        [[complex(re, im) for re, im in rep] for rep in classes["representatives"]]
    )
    return classes, reps


def _residual(reps, c):
    """Worst |autocorrelation(b) - c| over representatives b, over c0."""
    worst = 0.0
    for b in reps:
        worst = max(worst, float(np.abs(np.convolve(b, np.conj(b[::-1])) - c).max()))
    return worst / c[len(c) // 2].real


def _same_up_to_phase(a, b, tol):
    """Whether two representative sets match one to one up to global phase.

    Rows are scaled to unit energy; the best phase between two rows is the
    angle of their inner product, and the matched pair must then agree
    coefficient by coefficient within tol.
    """
    if a.shape != b.shape:
        return False
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    gram = a @ b.conj().T
    best = np.abs(gram).argmax(axis=1)
    if len(set(best.tolist())) != len(best):
        return False
    inner = gram[np.arange(len(a)), best]
    phase = inner / np.abs(inner)
    return bool(np.abs(a - phase[:, None] * b[best]).max() <= tol)


def check_classes(item, blobs):
    """enumerate and factor reports against the drawn signal's measurement."""
    c, count = item.truth["measurement"], item.truth["count"]
    enum_cls, enum_reps = _reps(json.loads(blobs[0]))
    fact_cls, fact_reps = _reps(json.loads(blobs[1]))
    returned = enum_cls["exact_count"] + fact_cls["exact_count"]
    for name, cls, reps in (("enumerate", enum_cls, enum_reps),
                            ("factor", fact_cls, fact_reps)):
        if cls["exact_count"] != count or len(reps) != count:
            return "%s found %d classes, expected %d" % (
                name, cls["exact_count"], count), returned
        residual = _residual(reps, c)
        if not residual <= RESIDUAL_TOL:
            return "%s representative misses the measurement by %.3g c0" % (
                name, residual), returned
    if not _same_up_to_phase(enum_reps, fact_reps, CLASS_SET_TOL):
        return "enumerate and factor class sets differ", returned
    rows = blobs[2].decode().count("\n") - 1 if len(blobs) > 2 else None
    if rows is not None and rows != CSV_SAMPLES * count:
        return "enumerate CSV has %d rows, expected %d" % (
            rows, CSV_SAMPLES * count), returned
    return None, returned


def check_equiv(item, blobs):
    verdict = json.loads(blobs[0])["verdict"]
    related, kappa = item.truth["related"], item.truth["kappa"]
    if verdict["related"] != related:
        return "related=%s for a pair built with related=%s" % (
            verdict["related"], related), 0
    if related and not abs(verdict["kappa"] - kappa) <= KAPPA_TOL * kappa:
        return "kappa %.12g, expected %.12g" % (verdict["kappa"], kappa), 0
    return None, 0


def _gap_truth(m):
    """Closed forms for the bundled order-m constellation.

    It holds one whole class of 4^m points sharing a measurement plus two
    tones with their own measurements, all equally likely.
    """
    n = 4**m + 2
    masses = np.array([4**m, 1, 1]) / n
    return {
        "i_xy": math.log2(n),
        "i_xs": float(-(masses * np.log2(masses)).sum()),
        "bound": 1.0 + math.log2(m) / (2 * m + 1),
    }


def check_gap(item, blobs):
    reports = json.loads(blobs[0])["reports"]
    rows = list(csv.DictReader(io.StringIO(blobs[1].decode())))
    orders = item.truth["orders"]
    if [r["m"] for r in reports] != orders or [int(r["m"]) for r in rows] != orders:
        return "sweep rows do not cover m=%s" % orders, 0
    for report, row in zip(reports, rows):
        m = report["m"]
        truth = _gap_truth(m)
        for source in (report, row):
            got = {key: float(source[key]) for key in ("i_xy", "i_xs", "per_dim_gap")}
            for key in ("i_xy", "i_xs"):
                if not abs(got[key] - truth[key]) <= GAP_TOL:
                    return "m=%d: %s %.15g, expected %.15g" % (
                        m, key, got[key], truth[key]), 0
            if not got["per_dim_gap"] <= truth["bound"] + GAP_TOL:
                return "m=%d: per_dim_gap %.15g over the bound %.15g" % (
                    m, got["per_dim_gap"], truth["bound"]), 0
        if not report["chain_residual"] <= GAP_TOL:
            return "m=%d: chain_residual %.3g" % (m, report["chain_residual"]), 0
    return None, 0


# ------------------------------------------------------------ workloads


def _classes_item(workdir, tag, roots, with_csv):
    b = inputs.signal_from_roots(roots)
    c = inputs.autocorrelation(b)
    sig = os.path.join(workdir, tag + "-sig.json")
    meas = os.path.join(workdir, tag + "-meas.json")
    inputs.write_signal(sig, b)
    inputs.write_measurement(meas, c)
    out = [os.path.join(workdir, tag + suffix)
           for suffix in ("-enum.json", "-factor.json", "-enum.csv")]
    enum = ["enumerate", sig, "--json", out[0]] + (["--csv", out[2]] if with_csv else [])
    return Item(
        argvs=[enum, ["factor", meas, "--json", out[1]]],
        outputs=out if with_csv else out[:2],
        truth={"measurement": c, "count": 4 ** ((len(b) - 1) // 2)},
        check=check_classes,
    )


def classes_m5(rng, workdir):
    """One generic order-5 draw: 10 roots at distinct angles, 1,024 classes."""
    return [_classes_item(workdir, "m5", inputs.separated_roots(rng, 10), True)]


NEAR_CIRCLE_SQUEEZES = (0.9, 0.99, 0.999)
NEAR_CIRCLE_ITEMS = 90


def near_circle(rng, workdir):
    """Order-4 draws with uniform angles, squeezed toward the circle.

    The roots stay simple and none is the reflection of another, so each
    draw has 256 classes. Some roots land close together or within 1e-4 of
    the circle, which is what the workload is for.
    """
    items = []
    for i in range(NEAR_CIRCLE_ITEMS):
        s = NEAR_CIRCLE_SQUEEZES[i % len(NEAR_CIRCLE_SQUEEZES)]
        roots = inputs.squeeze(inputs.loose_roots(rng, 8), s)
        items.append(_classes_item(workdir, "nc%03d" % i, roots, False))
    return items


EQUIV_ORDERS = range(10, 41)
EQUIV_ITEMS = 248  # four sweeps of the 31 orders, related and independent


def equiv_highdeg(rng, workdir):
    """Pairs of order 10 to 40, alternately related and independent."""
    items = []
    for i in range(EQUIV_ITEMS):
        m = EQUIV_ORDERS[(i // 2) % len(EQUIV_ORDERS)]
        related = i % 2 == 0
        if related:
            f, g, kappa = inputs.related_pair(rng, inputs.loose_roots(rng, 2 * m))
        else:
            f = inputs.signal_from_roots(inputs.loose_roots(rng, 2 * m))
            g = inputs.signal_from_roots(inputs.loose_roots(rng, 2 * m))
            kappa = None
        paths = [os.path.join(workdir, "eq%03d-%s.json" % (i, side))
                 for side in ("f", "g", "out")]
        inputs.write_signal(paths[0], f)
        inputs.write_signal(paths[1], g)
        items.append(Item(
            argvs=[["equiv", paths[0], paths[1], "--json", paths[2]]],
            outputs=[paths[2]],
            truth={"related": related, "kappa": kappa},
            check=check_equiv,
        ))
    return items


GAP_ORDERS = [1, 2, 3, 4, 5, 6]


def gap_sweep(rng, workdir):
    """The bundled sweep: the seed reaches no input, the items are fixed."""
    out = [os.path.join(workdir, "gap.json"), os.path.join(workdir, "gap.csv")]
    sweep = "m=%d..%d" % (GAP_ORDERS[0], GAP_ORDERS[-1])
    return [Item(
        argvs=[["gap", "--sweep", sweep, "--json", out[0], "--csv", out[1]]],
        outputs=out,
        truth={"orders": GAP_ORDERS},
        check=check_gap,
    )]


def warmup_argvs(name, workdir):
    """Cheap commands that load what a workload's first op would load lazily."""
    rng = np.random.default_rng(0)
    if name == "gap-sweep":
        return [["gap", "--sweep", "m=1..1", "--csv", os.path.join(workdir, "w.csv")]]
    if name == "equiv-highdeg":
        f, g, _ = inputs.related_pair(rng, inputs.separated_roots(rng, 2))
        paths = [os.path.join(workdir, "w-%s.json" % s) for s in ("f", "g", "out")]
        inputs.write_signal(paths[0], f)
        inputs.write_signal(paths[1], g)
        return [["equiv", paths[0], paths[1], "--json", paths[2]]]
    item = _classes_item(workdir, "w", inputs.separated_roots(rng, 2), True)
    return item.argvs


WORKLOADS = {
    "classes-m5": classes_m5,
    "gap-sweep": gap_sweep,
    "equiv-highdeg": equiv_highdeg,
    "near-circle": near_circle,
}

CLASS_WORKLOADS = ("classes-m5", "near-circle")
