"""Spans around sldlab's public functions, recorded from outside the package.

Tracer.install wraps each named function and rebinds the wrapper under
every name that holds the original in any loaded sldlab module, so calls
through `from .roots import find_roots` in another module are caught too.
Spans (name, start, end, parent, op id, raised, items) stay in memory and
are written out once, after the run. Tracing is off unless a Tracer is
installed, and uninstall restores every binding.
"""

import functools
import importlib
import json
import sys
import threading
import time

import numpy as np

# span name -> what to count from a call, as items
SPANS = {
    "cli.main": None,
    "serialize.load_json": None,
    "serialize.parse_signal": None,
    "serialize.parse_autocorr": None,
    "serialize.render_report": lambda args, result: len(result.encode("utf-8")),
    "roots.find_roots": None,
    "roots.pair_reciprocal": None,
    "roots.joint_orbits": None,
    "blaschke.kappa_ratio": None,
    "equivalence.struct_magnitude_equiv": None,
    "equivalence.numeric_magnitude_equiv": None,
    "equivalence.phase_equiv": None,
    "ambiguity.enumerate_classes": lambda args, result: result.exact_count,
    "ambiguity.factor_sld": lambda args, result: result.exact_count,
    "ambiguity.certify_bound": None,
    "signals.autocorrelation": None,
    "capacity.gap_experiment": lambda args, result: len(args[0].signals),
    "capacity.bundled_constellation": None,
    "capacity.mi_noiseless": None,
    "capacity.sld_keys": lambda args, result: len(result),
}

# span groups whose summed self time is one layer metric
GROUPS = {
    "roots.orbits": ("roots.pair_reciprocal", "roots.joint_orbits"),
    "ambiguity": ("ambiguity.enumerate_classes", "ambiguity.factor_sld"),
    "serialize.parse": ("serialize.load_json", "serialize.parse_signal",
                        "serialize.parse_autocorr"),
    "cli": ("cli.main",),
}

SELF_TIMES = (
    "roots.find_roots", "ambiguity.certify_bound", "signals.autocorrelation",
    "capacity.mi_noiseless", "capacity.sld_keys", "capacity.gap_experiment",
    "capacity.bundled_constellation", "equivalence.struct_magnitude_equiv",
    "equivalence.numeric_magnitude_equiv", "blaschke.kappa_ratio",
    "serialize.render_report",
)


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.spans = []  # [name index, start, end, parent, op, raised, items]
        self.op = -1
        self.absent = []
        self._patches = []
        self._local = threading.local()
        self._root = -1

    def install(self):
        """Wrap every span target that exists; record the rest as absent."""
        self.absent = []
        modules = [mod for name, mod in sys.modules.items()
                   if name == "sldlab" or name.startswith("sldlab.")]
        for idx, name in enumerate(self.names):
            module_name, attr = name.rsplit(".", 1)
            try:
                module = importlib.import_module("sldlab." + module_name)
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(idx, original, SPANS[name])
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    def begin_op(self):
        self.op += 1

    def _wrap(self, idx, fn, count):
        spans, local, clock = self.spans, self._local, time.perf_counter
        main_thread = threading.main_thread()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is main_thread:
                parent = -1
            else:  # a CLI worker thread: charge it to the op's outermost span
                parent = self._root
            record = [idx, 0.0, 0.0, parent, self.op, False, 0]
            me = len(spans)
            spans.append(record)
            if parent == -1:
                self._root = me
            stack.append(me)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[2] = clock()
                record[5] = True
                raise
            finally:
                stack.pop()
            record[2] = clock()
            if count is not None:
                try:
                    record[6] = int(count(args, result))
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return wrapper

    def summary(self, scale, passes):
        """Per-layer metrics over the traced ops.

        Self time is a span's duration minus the time of its child spans,
        summed per name and divided by the traced op count. scale[op]
        converts the wall seconds of an op to reference seconds.
        `<span>.calls` and `<span>.raised` count one traced pass over the
        input pool.
        """
        ops = len(scale)
        n = len(self.names)
        if self.spans:
            rec = np.array(self.spans, dtype=float)
        else:
            rec = np.zeros((0, 7))
        name = rec[:, 0].astype(int)
        dur = rec[:, 2] - rec[:, 1]
        parent = rec[:, 3].astype(int)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(rec))
        op_scale = np.asarray(scale, dtype=float)[rec[:, 4].astype(int)]
        self_time = np.bincount(name, weights=(dur - child) * op_scale, minlength=n)
        calls = np.bincount(name, minlength=n)
        raised = np.bincount(name, weights=rec[:, 5], minlength=n)
        items = np.bincount(name, weights=rec[:, 6], minlength=n)
        at = {span: i for i, span in enumerate(self.names)}

        def self_s(*spans):
            return float(sum(self_time[at[s]] for s in spans)) / ops

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        out = {}
        for span in SELF_TIMES:
            out[span + ".self_s"] = self_s(span)
        for group, spans in GROUPS.items():
            out[group + ".self_s"] = self_s(*spans)
        find = at["roots.find_roots"]
        factor = at["ambiguity.factor_sld"]
        under_factor = np.count_nonzero(
            (name == find) & has_parent
            & (name[np.where(has_parent, parent, 0)] == factor)
        )
        classes = items[at["ambiguity.enumerate_classes"]] + items[factor]
        out["roots.find_roots.calls_per_op"] = ratio(calls[find], ops)
        out["ambiguity.factor_attempts_per_call"] = ratio(under_factor, calls[factor])
        out["signals.autocorrelation.calls_per_class"] = ratio(
            calls[at["signals.autocorrelation"]], classes)
        out["capacity.sld_keys.calls_per_point"] = ratio(
            items[at["capacity.sld_keys"]], items[at["capacity.gap_experiment"]])
        out["serialize.report_bytes"] = ratio(items[at["serialize.render_report"]], ops)
        for span in self.names:
            out[span + ".calls"] = ratio(calls[at[span]], passes)
            out[span + ".raised"] = ratio(raised[at[span]], passes)
        return out

    def dump(self, path):
        """Write the spans as JSON lines, one per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for idx, start, end, parent, op, raised, items in self.spans:
                handle.write(json.dumps({
                    "name": self.names[idx], "start": start, "end": end,
                    "parent": parent, "op": op, "raised": raised, "items": items,
                }) + "\n")
