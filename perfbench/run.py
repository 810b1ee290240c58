"""sldlab benchmark: closed-loop CLI workloads with checked outputs.

One workload per process, one client, no extra threads:

    python3 perfbench/run.py --workload equiv-highdeg --seed 1 --seconds 20 --trace 0

runs the workload's ops through sldlab.cli.main for about --seconds, checks
every report against ground truth, and prints the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced run (--trace 1). The last
line of stdout is one JSON object with keys correct, attempted, failed
and metrics. `--all` runs every workload, untraced then traced, each in its
own process, and prints one table. Results and spans go to perfbench/_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SLD_LAB_LOG": "CRITICAL",
}
SETUP_SAMPLES = 7  # fresh interpreters timed for setup_s, after one untimed
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
HARNESS_FAILURES = ("raised", "unstable")

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "pass_ratio": "ratio",
    "sound_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    import tracer

    units = {}
    for name in tracer.SELF_TIMES:
        units[name + ".self_s"] = "s/op"
    for name in tracer.GROUPS:
        units[name + ".self_s"] = "s/op"
    units.update({
        "roots.find_roots.calls_per_op": "1/op",
        "ambiguity.factor_attempts_per_call": "1/call",
        "signals.autocorrelation.calls_per_class": "1/class",
        "capacity.sld_keys.calls_per_point": "1/point",
        "serialize.report_bytes": "B/op",
    })
    for name in tracer.SPANS:
        units[name + ".calls"] = "count"
        units[name + ".raised"] = "count"
    units["trace.op_p50_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "threads": {k: v for k, v in PINNED_ENV.items() if k != "SLD_LAB_LOG"},
    }


SETUP_CODE = """
import time
start = time.perf_counter()
import sldlab.cli
elapsed = time.perf_counter() - start
import statistics, pace
print(elapsed * pace.KERNEL_SECONDS / statistics.median(pace.kernel_times(20)))
"""


def measure_setup():
    """Median time to `import sldlab.cli` in a fresh interpreter.

    Each interpreter times the reference kernel right after the import, so
    the result is in reference seconds like the op times.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              check=True, timeout=120, capture_output=True, text=True)
        if i:  # the first one may compile bytecode
            samples.append(float(proc.stdout))
    return statistics.median(samples)


def input_digest(workdir, items):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        digest.update(name.encode())
        with open(os.path.join(workdir, name), "rb") as handle:
            digest.update(handle.read())
    for item in items:
        digest.update(json.dumps(item.argvs).replace(workdir, "").encode())
    return digest.hexdigest()[:16]


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    if len(times) < 2 * TAIL_BEYOND:
        return None, None
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_passes(items, seconds, op, tracer=None):
    """Closed loop over the item pool until `seconds` have passed.

    Untraced, the first pass over the pool always completes and later
    passes may stop part way. Traced, passes alternate untraced and traced
    and stop only after a traced pass, so per-pass counts are exact.
    Returns [(traced, outcome)] and the traced pass count.
    """
    import pace

    ops, passes = [], 0
    clock = pace.Pace()
    start = time.perf_counter()
    pass_no = 0
    while True:
        tracing = tracer is not None and pass_no % 2 == 1
        if tracing:
            tracer.install()
        try:
            for item in items:
                if (tracer is None and pass_no > 0
                        and time.perf_counter() - start >= seconds):
                    return ops, passes
                if tracing:
                    tracer.begin_op()
                outcome = op(item, clock)
                ops.append((tracing, outcome))
                if outcome.status in HARNESS_FAILURES:
                    item.status = outcome.status
        finally:
            if tracing:
                tracer.uninstall()
        passes += tracing
        pass_no += 1
        if tracing and time.perf_counter() - start >= seconds:
            return ops, passes


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import numpy as np

    import sldlab.cli as cli
    import tracer as tracing
    import workloads

    if Path(cli.__file__).resolve().parent != SRC / "sldlab":
        print("error: imported sldlab from %s, not %s" % (cli.__file__, SRC),
              file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    setup_s = measure_setup() if not args.trace else None

    def op(item, clock):
        # cli.main is looked up per call, so a traced pass reaches the wrapper
        return workloads.run_op(lambda argv: cli.main(argv), item, clock)

    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        items = workloads.WORKLOADS[args.workload](
            np.random.default_rng(args.seed), workdir)
        digest = input_digest(workdir, items)
        warmup = workloads.warmup_argvs(args.workload, workdir)
        workloads.run_op(cli.main, workloads.Item(warmup, [], {}, lambda *_: (None, 0)))
        ops, passes = run_passes(items, args.seconds, op, tracer)

    outcomes = [outcome for _, outcome in ops]
    plain = [o for traced, o in ops if not traced]
    hot = [o for traced, o in ops if traced]
    op_ref = [o.ref_seconds for o in plain]
    failed_items = [i for i, item in enumerate(items) if item.status != "ok"]
    wrong_items = [i for i, item in enumerate(items) if item.status == "wrong"]
    harness = sum(o.status in HARNESS_FAILURES for o in outcomes)
    print("perfbench workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs items=%d digest=%s ops=%d" % (len(items), digest, len(outcomes)))
    shown = set()
    for o in outcomes:
        if o.status != "ok" and o.detail and len(shown) < 8 and o.detail not in shown:
            shown.add(o.detail)
            print("outcome %s: %s" % (o.status, o.detail.replace("\n", " | ")))

    info = {
        "fail_ratio": (len(failed_items) / len(items), "ratio",
                       "%d of %d inputs" % (len(failed_items), len(items))),
        "wrong_ratio": (len(wrong_items) / len(items), "ratio",
                        "%d of %d inputs" % (len(wrong_items), len(items))),
    }
    if not tracer:
        wall = [o.seconds for o in plain]
        info["op_p50_wall_s"] = (statistics.median(wall), "s",
                                 "wall time, median of %d ops" % len(wall))
        info["ops_per_wall_s"] = (len(wall) / sum(wall), "1/s", "wall time")
        value, pct = tail(op_ref)
        if value is not None:
            info["op_tail_s"] = (value, "s", "p%.1f of %d ops, %d beyond"
                                 % (pct, len(op_ref), TAIL_BEYOND))
        if args.workload in workloads.CLASS_WORKLOADS:
            classes = sum(o.classes for o in plain)
            info["classes_per_s"] = (classes / sum(op_ref), "1/s",
                                     "%d classes" % classes)
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(op_ref),
            "ops_per_s": len(op_ref) / sum(op_ref),
            "pass_ratio": 1.0 - len(failed_items) / len(items),
            "sound_ratio": 1.0 - len(wrong_items) / len(items),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        metrics = tracer.summary([o.ref_seconds / o.seconds for o in hot], passes)
        traced_p50 = statistics.median(o.ref_seconds for o in hot)
        metrics["trace.op_p50_s"] = traced_p50
        metrics["trace.overhead_ratio"] = traced_p50 / statistics.median(op_ref)
        units = per_layer_units()
        if tracer.absent:
            print("absent spans: " + " ".join(tracer.absent))
        tracer.dump(OUT / ("%s-s%d.spans.jsonl" % (args.workload, args.seed)))
    for name, (value, unit, note) in info.items():
        print("metric %s %.6g %s (%s)" % (name, value, unit, note))
    for name, unit in units.items():
        print("metric %s %.6g %s" % (name, metrics[name], unit))

    result = {
        "correct": harness == 0,
        "attempted": len(outcomes),
        "failed": harness,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace,
                  seconds=args.seconds, env=env, inputs=digest,
                  info={k: {"value": v, "unit": u, "note": n}
                        for k, (v, u, n) in info.items()})
    path = OUT / ("%s-s%d-t%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Every workload, untraced then traced, one process each; one table."""
    import workloads

    rows = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print("error: %s --trace %d exited %d" % (name, trace, proc.returncode),
                      file=sys.stderr)
                return 1
            for line in proc.stdout.splitlines()[:-1]:
                if line.startswith(("inputs", "outcome", "absent")):
                    print("[%s t%d] %s" % (name, trace, line))
            path = OUT / ("%s-s%d-t%d.json" % (name, args.seed, trace))
            rows.setdefault(name, {})[trace] = json.loads(path.read_text())
    first = rows[next(iter(rows))][0]
    print("env " + json.dumps(first["env"], sort_keys=True))
    for trace, title in ((0, "end-to-end"), (1, "per-layer (traced run)")):
        print("\n%s" % title)
        names = list(first["metrics"]) if trace == 0 else list(
            rows[next(iter(rows))][1]["metrics"])
        if trace == 0:
            names += ["fail_ratio", "wrong_ratio", "op_tail_s", "classes_per_s"]
        print("%-46s %-8s" % ("metric", "unit") + "".join(
            "%16s" % name for name in rows))
        for metric in names:
            cells, unit = [], ""
            for name in rows:
                rec = rows[name][trace]
                entry = rec["metrics"].get(metric) or rec["info"].get(metric)
                cells.append("%16.6g" % entry["value"] if entry else "%16s" % "-")
                unit = entry["unit"] if entry else unit
            print("%-46s %-8s" % (metric, unit) + "".join(cells))
        print("%-46s %-8s" % ("attempted / failed", "ops") + "".join(
            "%16s" % ("%d/%d" % (rows[n][trace]["attempted"], rows[n][trace]["failed"]))
            for n in rows))
    summary = OUT / ("all-s%d.json" % args.seed)
    summary.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print("\nwrote %s" % summary.relative_to(ROOT))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(
        "classes-m5", "gap-sweep", "equiv-highdeg", "near-circle"))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    return args


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(PINNED_ENV)  # before numpy loads OpenBLAS
    if not (SRC / "sldlab" / "cli.py").is_file():
        print("error: no sldlab sources at %s" % SRC, file=sys.stderr)
        return 1
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
