"""JSON input parsing, validation, and report rendering.

Complex numbers travel as [re, im] pairs. Inputs are checked before any
numerics run, so malformed files fail with a field path instead of a stack
trace. The check is a small hand-written validator whose spec is the
shipped schema.json (the signal, autocorrelation and constellation
formats): it accepts and rejects what that schema does and names the field
that jsonschema's best_match names. It also rejects every number that is
not finite as a float (NaN, Infinity, integers beyond the float range),
which the schema lets through. Report rendering is deterministic: sorted
keys, an indent of 2 and one trailing newline, except that each row of an
array (a list or tuple inside a list, such as one class representative or
one [re, im] lag) is written on one line by json's C encoder.
"""

import json
import math
import numbers
from dataclasses import asdict

import numpy as np

from .errors import ParseError, SchemaMismatch
from .signals import AutocorrSeq, TrigPoly
from .capacity import Constellation


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            "%s is not valid JSON (line %d, column %d): %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc
    except ValueError as exc:  # not UTF-8, or an integer beyond Python's digit limit
        raise ParseError("%s is not valid JSON: %s" % (path, exc)) from exc


def _number(x, path, errors, positive=False):
    """A JSON number, finite as a float, and above 0 if positive."""
    if isinstance(x, bool) or not isinstance(x, numbers.Number):
        errors.append((path, "%r is not of type 'number'" % (x,)))
        return
    try:
        finite = math.isfinite(x)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        spelled = json.dumps(x) if type(x) in (int, float) else repr(x)
        errors.append((path, "%s is not a finite number" % spelled))
    elif positive and x <= 0:
        errors.append((path, "%r is less than or equal to the minimum of 0" % (x,)))


def _object(obj, path, required, errors, optional=()):
    """Whether obj is a JSON object; records its missing or unexpected keys."""
    if not isinstance(obj, dict):
        errors.append((path, "%r is not of type 'object'" % (obj,)))
        return False
    missing = [key for key in required if key not in obj]
    extra = sorted((key for key in obj if key not in required and key not in optional), key=str)
    if missing:
        errors.append((path, "%r is a required property" % missing[0]))
    elif extra:
        errors.append((path, "Additional properties are not allowed (%s %s unexpected)"
                       % (", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were")))
    return True


def _list(items, path, errors):
    """The items of a non-empty JSON array, or () after recording why not."""
    if not isinstance(items, list):
        errors.append((path, "%r is not of type 'array'" % (items,)))
        return ()
    if not items:
        errors.append((path, "[] should be non-empty"))
    return items


def _pairs(items, path, errors):
    """A non-empty JSON array of [re, im] number pairs."""
    for i, pair in enumerate(_list(items, path, errors)):
        if not isinstance(pair, list):
            errors.append((path + (i,), "%r is not of type 'array'" % (pair,)))
        elif len(pair) != 2:
            errors.append((path + (i,), "%r is too %s" % (pair, "short" if len(pair) < 2 else "long")))
        else:
            _number(pair[0], path + (i, 0), errors)
            _number(pair[1], path + (i, 1), errors)


def _errors(obj, kind):
    """(path, message) of what breaks format `kind` of schema.json, one per field."""
    errors = []
    items = "points" if kind == "constellation" else "coeffs"
    if not _object(obj, (), ("m", items), errors, optional=("period",)):
        return errors
    if "m" in obj:
        m = obj["m"]
        if isinstance(m, bool) or not (isinstance(m, int) or isinstance(m, float) and m.is_integer()):
            errors.append((("m",), "%r is not of type 'integer'" % (m,)))
        elif m < 0:
            errors.append((("m",), "%r is less than the minimum of 0" % (m,)))
    if "period" in obj:
        _number(obj["period"], ("period",), errors, positive=True)
    if items == "coeffs":
        if "coeffs" in obj:
            _pairs(obj["coeffs"], ("coeffs",), errors)
    elif "points" in obj:
        for i, point in enumerate(_list(obj["points"], ("points",), errors)):
            at = ("points", i)
            if _object(point, at, ("coeffs", "probability"), errors):
                if "coeffs" in point:
                    _pairs(point["coeffs"], at + ("coeffs",), errors)
                if "probability" in point:
                    _number(point["probability"], at + ("probability",), errors, positive=True)
    return errors


def validate(obj, kind):
    """Raise SchemaMismatch unless obj is a valid `kind` document."""
    errors = _errors(obj, kind)
    if errors:
        # the field jsonschema's best_match names: the shallowest, then the last in path order
        path, message = max(errors, key=lambda err: (-len(err[0]), err[0]))
        path = ".".join(str(part) for part in path) or "(root)"
        raise SchemaMismatch("%s: field %s: %s" % (kind, path, message))


def _complex_vector(pairs):
    return np.array(pairs, dtype=np.float64).view(np.complex128).reshape(-1)


def parse_signal(obj):
    validate(obj, "signal")
    m = obj["m"]
    coeffs = obj["coeffs"]
    if len(coeffs) != 2 * m + 1:
        raise SchemaMismatch(
            "signal: field coeffs: expected 2m+1 = %d entries, got %d"
            % (2 * m + 1, len(coeffs))
        )
    return TrigPoly(m=m, coeffs=_complex_vector(coeffs), period=obj.get("period", 1.0))


def parse_autocorr(obj):
    validate(obj, "autocorrelation")
    m = obj["m"]
    coeffs = obj["coeffs"]
    if len(coeffs) != 4 * m + 1:
        raise SchemaMismatch(
            "autocorrelation: field coeffs: expected 4m+1 = %d entries, got %d"
            % (4 * m + 1, len(coeffs))
        )
    return AutocorrSeq(m=m, coeffs=_complex_vector(coeffs), period=obj.get("period", 1.0))


def parse_constellation(obj):
    validate(obj, "constellation")
    m = obj["m"]
    period = obj.get("period", 1.0)
    rows, probs = [], []
    for idx, point in enumerate(obj["points"]):
        coeffs = point["coeffs"]
        if len(coeffs) != 2 * m + 1:
            raise SchemaMismatch(
                "constellation: field points.%d.coeffs: expected %d entries, got %d"
                % (idx, 2 * m + 1, len(coeffs))
            )
        rows.append(_complex_vector(coeffs))
        probs.append(point["probability"])
    total = sum(probs)
    if total == math.inf:
        # the plain sum overflowed: rescale by the largest probability first
        top = max(probs)
        probs = [p / top for p in probs]
        total = sum(probs)
    return Constellation(coeffs=np.stack(rows), probs=[p / total for p in probs], period=period)


def complex_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def complex_pairs(arr):
    """[re, im] float pairs of a complex array, nested as the array is."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    return arr.view(np.float64).reshape(arr.shape + (2,)).tolist()


def signal_dict(p):
    """The JSON document of a TrigPoly or an AutocorrSeq."""
    return {"m": p.m, "period": p.period, "coeffs": complex_pairs(p.coeffs)}


autocorr_dict = signal_dict
verdict_dict = asdict


def rootset_dict(r):
    return {
        "degree": r.degree,
        "origin_mult": r.origin_mult,
        "leading_coeff": complex_pair(r.leading_coeff),
        "circle_band": r.circle_band,
        "roots": [
            {
                "location": complex_pair(root.location),
                "multiplicity": root.multiplicity,
                "label": root.label,
                "cluster_diameter": root.diameter,
            }
            for root in r.roots
        ],
    }


def classset_dict(cs, report):
    return {
        "m": cs.source_m,
        "period": cs.autocorr.period,
        "bound": cs.bound,
        "exact_count": cs.exact_count,
        "autocorrelation": complex_pairs(cs.autocorr.coeffs),
        "representatives": complex_pairs(cs.coeffs),
        "within_bound": report.passed,
        "max_residual": report.max_residual,
        "residuals": list(report.residuals),
    }


def gap_dict(report):
    out = asdict(report)
    out["pass"] = out.pop("passed")
    return out


# json takes its C encoder only when indent is None
_encode = json.JSONEncoder(sort_keys=True).encode


def _render(obj, pad):
    """indent=2 layout, except that a list or tuple inside a list is one line."""
    inner = pad + "  "
    if not (isinstance(obj, (dict, list, tuple)) and obj):
        return _encode(obj)
    values = obj.values() if isinstance(obj, dict) else obj
    if not any(isinstance(item, (dict, list, tuple)) for item in values):
        # only scalars: one C-encoder call, its item separator breaks the lines
        body = json.dumps(obj, sort_keys=True, separators=(",\n" + inner, ": "))[1:-1]
    elif isinstance(obj, dict):
        body = (",\n" + inner).join(
            _encode(key) + ": " + _render(obj[key], inner) for key in sorted(obj)
        )
    else:
        body = (",\n" + inner).join(
            _encode(item) if isinstance(item, (list, tuple)) else _render(item, inner)
            for item in obj
        )
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + "\n" + inner + body + "\n" + pad + brackets[1]


def render_report(payload):
    """Deterministic JSON text for a report object whose keys are strings."""
    return _render(payload, "") + "\n"
