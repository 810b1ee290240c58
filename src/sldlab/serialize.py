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
one [re, im] lag) is written on one line, as json's encoder writes it,
and a numpy array as the nested list it holds. The floats of such rows,
lists and arrays are formatted a block at a time by a numpy formatter
whose text is repr's, which is json's for a finite float; everything else
goes through one json C encoder per report.
"""

import functools
import json
import math
import numbers
from dataclasses import asdict
from itertools import chain

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


def _pair_array(arr):
    """A float array of the [re, im] pairs of a complex array, nested as the array is."""
    arr = np.ascontiguousarray(arr, dtype=complex)
    return arr.view(np.float64).reshape(arr.shape + (2,))


def complex_pairs(arr):
    """[re, im] float pairs of a complex array, nested as the array is."""
    return _pair_array(arr).tolist()


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
        "autocorrelation": _pair_array(cs.autocorr.coeffs),
        "representatives": _pair_array(cs.coeffs),
        "within_bound": report.passed,
        "max_residual": report.max_residual,
        "residuals": report.residuals,
    }


def gap_dict(report):
    out = asdict(report)
    out["pass"] = out.pop("passed")
    return out


# The float formatter: repr's text for a whole array of floats. Its integer
# arrays are int64, as elsewhere in the program: int8 or uint64 arithmetic
# pages in numpy loops that nothing else runs, about 0.3 MB more resident.
_BLOCK = 2048  # values formatted per block; every temporary is per block
_E_MIN, _E_MAX = -40, 40  # decimal exponents of the vectorized path
_MARGIN = 1e-7  # least distance of a decision from its boundary, in last-digit units
# the constant bytes of repr's texts, at bytes 32 to 47 of each value's canvas
_ALPHABET = b"-.e+0123456789\0\0"
_CHARS = 24  # text bytes per value; the longest text, "-0.000" + 17 digits, has 23


@functools.cache
def _digit_tables():
    """10**(16 - E) for each E of the vectorized path, and the digits of 0..9999.

    Column E - _E_MIN of the first holds (hi, Dekker's two halves of hi,
    lo), hi + lo being that power to about 106 bits: hi is the power
    rounded, lo the rest rounded, both from exact integer arithmetic.
    The second holds the four ASCII digits of each n < 10**4, as the value
    of a little-endian uint32, the third the count of n's trailing zeros (4
    for 0).
    """
    pow10 = np.empty((4, _E_MAX - _E_MIN + 1))
    for k, e in enumerate(range(_E_MIN, _E_MAX + 1)):
        # 10**(16 - e) = num / den, and hi = hi_num / hi_den exactly
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        big = hi * 134217729.0
        big -= big - hi
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        pow10[:, k] = hi, big, hi - big, lo
    n = np.arange(10000)
    quads, zeros = np.zeros(10000, np.int64), np.zeros(10000, np.int64)
    for k, place in enumerate((1000, 100, 10, 1)):
        quads += (n // place % 10 + 48) << 8 * k
        zeros += n % (10000 // place) == 0
    return pow10, quads, zeros


def _at(char):
    """Where a constant byte of repr's text lies in a value's canvas."""
    return 32 + _ALPHABET.index(char)


@functools.cache
def _layouts():
    """Where each byte of repr's text comes from, per (sign, decimal exponent E, digit count).

    Row (neg * (_E_MAX - _E_MIN + 1) + E - _E_MIN) * 18 + nsig is for a
    value whose shortest digits are d, nsig of them, padded with zeros to
    17. Its text is the sign, then y[:q] + "." + y[q:keep] with
    y = ("0000" + d)[s:], then an exponent such as "e-05" where repr uses
    the exponent form (E < -4 or E >= 16). Entry k of the row is the byte
    of the value's canvas (see _float_bytes) that is byte k of the text,
    0 (a NUL) past its end. The rows are built nine exponents at a time,
    so every temporary stays a few kilobytes.
    """
    text = np.concatenate([_unsigned_layouts(np.arange(lo, min(lo + 9, _E_MAX + 1)))
                           for lo in range(_E_MIN, _E_MAX + 1, 9)])
    signed = np.concatenate([np.full((len(text), 1), _at(b"-"), np.uint8), text[:, :-1]], axis=1)
    return np.concatenate([text, signed])


def _unsigned_layouts(exponents):
    """The _layouts rows of the positive values with these exponents."""
    e, nsig = (axis.ravel() for axis in np.meshgrid(exponents, np.arange(18),
                                                    indexing="ij"))
    expo = (e < -4) | (e >= 16)
    whole = ~expo & (e >= 0)  # at least one digit before the point
    s = np.where(expo | whole, 4, 4 + e)[:, None]
    q = np.where(whole, e + 1, 1)[:, None]
    keep = np.where(whole, np.maximum(nsig, e + 2), np.where(expo, nsig, nsig - e))[:, None]
    point = (~expo | (nsig > 1))[:, None]
    pos = np.arange(_CHARS)
    text = np.where(pos < keep + point, 11 + s + pos - (point & (pos > q)), 0).astype(np.uint8)
    text[point & (pos == q)] = _at(b".")
    # the exponent: "e", its sign and two digits, from byte keep + point on
    after = pos - keep - point
    rows, cols = np.nonzero(expo[:, None] & (after >= 0) & (after < 4))
    suffix = np.stack([np.full(len(e), _at(b"e")), np.where(e < 0, _at(b"-"), _at(b"+")),
                       _at(b"0") + abs(e) // 10, _at(b"0") + abs(e) % 10], axis=1)
    text[rows, cols] = suffix[rows, after[rows, cols]]
    return text


def _float_bytes(values):
    """repr(float(v)) for each v of a float64 array, as the NUL-padded rows of a uint8 array.

    The rows are filled _BLOCK values at a time. _shortest gives each
    value's digits. Each value gets a canvas of six 64-bit words: "0000"
    and the 17 digits at bytes 11 to 31, _ALPHABET from byte 32 and NULs
    elsewhere; its _layouts row picks the text's bytes out of it in one
    gather. The values _shortest could not certify go through repr().
    """
    _, quads, zeros = _digit_tables()
    out = np.empty((len(values), _CHARS), np.uint8)
    for lo in range(0, len(values), _BLOCK):
        x = values[lo : lo + _BLOCK]
        digits, e, ok = _shortest(x)
        # the 17 digits, as the lead digit and four groups of four
        lead, rest = np.divmod(digits, 10**16)
        g1, g2 = np.divmod(rest // 10**8, 10**4)
        g3, g4 = np.divmod(rest % 10**8, 10**4)
        trailing = zeros[g4] + (g4 == 0) * (zeros[g3] + (g3 == 0) * (
            zeros[g2] + (g2 == 0) * zeros[g1]))
        words = np.zeros((len(x), 6), np.int64)
        words[:, 1] = quads[lead] << 32 | 0x30 << 24
        words[:, 2] = quads[g1] | quads[g2] << 32
        words[:, 3] = quads[g3] | quads[g4] << 32
        words[:, 4:] = np.frombuffer(_ALPHABET, "<i8")
        neg = x.view(np.int64) < 0
        key = (neg * (_E_MAX - _E_MIN + 1) + e - _E_MIN) * 18 + 17 - trailing
        take = np.add(_layouts().take(key, axis=0), np.arange(0, 48 * len(x), 48)[:, None])
        words.view(np.uint8).ravel().take(take, out=out[lo : lo + len(x)])
        missed = np.flatnonzero(~ok)
        out[lo + missed] = _text_rows(map(repr, x[missed].tolist()), "S%d" % _CHARS)
    return out


def _text_rows(texts, dtype=np.bytes_):
    """ASCII texts as the NUL-padded rows of a uint8 array, as wide as dtype."""
    texts = np.array(list(texts), dtype)
    return texts.view(np.uint8).reshape(-1, texts.itemsize)


def _shortest(x):
    """(digits, E, ok): repr's digits of each |x| as a 17-digit integer, and its exponent.

    For a = |x| with decimal exponent E, P = a * 10**(16 - E) lies in
    [10**16, 10**17). It is formed once as p + err: p = a * hi rounded, err
    the rest by Dekker's product plus a * lo, together within about 1e-14 of
    a unit of P. p is an integer, as every double above 2**53 is. The
    17-digit candidate is D17 = round(P), with remainder P - D17; the 16-
    and 15-digit ones round P / 10 and P / 100, found from D17's last two
    digits and that remainder. repr prints the fewest digits that read back
    as x, the nearest of them where several do: at 15 digits or fewer at
    most one decimal reads back, so the 15-digit candidate with its trailing
    zeros dropped when it lies within half an ulp of x; else the rounded,
    so nearest, 16-digit one when it does; else D17, which always does.

    Every decision must clear _MARGIN of a last-digit unit: where P lies
    against 10**16 and 10**17, the chosen candidate's rounding against a
    tie, and each candidate's distance against half an ulp. ok is False for
    a value that misses one, or that is subnormal, not finite, a power of
    two (whose ulp below is half the one above) or outside the table; its
    digits are those of 1. Zero has the digits of 0 and E = 0.
    """
    pow10 = _digit_tables()[0]
    bits = x.view(np.int64)
    bexp = bits >> 52 & 0x7FF
    ok = (bexp > 0) & (bexp < 0x7FF) & (bits << 12 != 0)
    a = np.abs(x)
    a[~ok] = 1.5
    e = np.floor(np.log10(a)).astype(np.int64)
    ok &= (e >= _E_MIN) & (e <= _E_MAX)
    # the values left out are formatted as 1.5, whose exponents these are
    a[~ok], e[~ok], bexp[~ok] = 1.5, 0, 1023
    hi, big, small, lo = np.take(pow10, e - _E_MIN, axis=1)
    p = a * hi
    a_big = a * 134217729.0
    a_big -= a_big - a
    a_small = a - a_big
    err = ((a_big * big - p) + a_big * small + a_small * big) + a_small * small + a * lo
    r = np.rint(err)
    r17 = err - r
    d17 = p.astype(np.int64) + r.astype(np.int64)
    ok &= ((d17 > 10**16) | ((d17 == 10**16) & (r17 > _MARGIN))) & (d17 < 10**17)
    half = np.ldexp(hi, bexp - 1076)  # half an ulp of a, in units of P
    d2 = d17 % 100
    d1 = d2 % 10
    t15 = (d2 + r17) * 0.01
    t16 = (d1 + r17) * 0.1
    up15 = t15 >= 0.5
    up16 = t16 >= 0.5
    r16 = np.abs(t16 - up16)
    miss15 = np.abs(t15 - up15) * 100 - half  # below 0: reads back
    miss16 = r16 * 10 - half
    ok &= (np.abs(miss15) > 100 * _MARGIN) & (np.abs(miss16) > 10 * _MARGIN)
    use15 = miss15 < 0
    use16 = (miss16 < 0) & ~use15
    digits = d17 - np.where(use15, d2 - 100 * up15, np.where(use16, d1 - 10 * up16, 0))
    tie = np.where(use16, r16, np.abs(r17))
    ok &= (np.abs(tie - 0.5) > _MARGIN) & (digits < 10**17)
    digits[~ok] = 10**16
    zero = bits << 1 == 0
    digits[zero] = 0
    ok |= zero
    return digits, e, ok


def _encoder():
    """A function giving the one-line JSON text that JSONEncoder(sort_keys=True).encode gives.

    That method builds a fresh C encoder on every call. This is the same C
    encoder, built once with the arguments that method passes it, so the
    bytes and the errors are the same. It gets a fresh circular-reference
    dict, as each encode call does: the C encoder leaves entries in the
    dict when it raises.
    """
    e = json.JSONEncoder(sort_keys=True)
    encode = json.encoder.c_make_encoder(
        {}, e.default, json.encoder.encode_basestring_ascii, e.indent,
        e.key_separator, e.item_separator, e.sort_keys, e.skipkeys, e.allow_nan)
    return lambda obj: "".join(encode(obj, 0))


_SLOT = "\0"  # a float's place in a row's template, where the template splits


def _floats(items):
    """(one item's pieces, the float leaves in order) or None.

    Not None for a float64 array, or when the items, lists or tuples, nest to
    one shape around leaves that are all floats, or are floats themselves.
    The pieces are json's one-line text of an item, split at each leaf. A
    structure deeper than 32 levels, such as a list holding itself, gives None.
    """
    array = isinstance(items, np.ndarray)
    level, shape = (items.ravel(), list(items.shape[1:])) if array else (items, [])
    for _ in range(32):
        kinds = {float} if array else set(map(type, level))
        if kinds == {float}:
            template = _SLOT
            for size in reversed(shape):
                template = "[" + ", ".join([template] * size) + "]"
            return template.split(_SLOT), level
        sizes = set(map(len, level)) if level and kinds <= {list, tuple} else ()
        if len(sizes) != 1:
            return None
        shape.append(sizes.pop())
        level = list(chain.from_iterable(level))
    return None


def _joined(texts, sep):
    """sep.join of texts, each given as its pieces, as pieces.

    The pieces of one item may be the list of another: they are read, not
    changed, so rows of one shape share their piece objects.
    """
    out = list(texts[0])
    for pieces in texts[1:]:
        out[-1] += sep + pieces[0]
        out += pieces[1:]
    return out


def _render(obj, pad, leaves, encode):
    """indent=2 layout, except that a list or tuple inside a list is one line.

    The text comes as its pieces: each float leaf of a list, row or float
    array lies between two of them, and the leaves of each such node are
    appended to leaves as one sequence. Every other value is encode's text.
    """
    inner = pad + "  "
    if isinstance(obj, np.ndarray) and not (obj.dtype == np.float64 and obj.ndim and obj.size):
        obj = obj.tolist()  # only a float64 array with leaves is a node of floats
    if not (isinstance(obj, (dict, list, tuple, np.ndarray)) and len(obj)):
        return [encode(obj)]
    values = obj.values() if isinstance(obj, dict) else obj
    uniform = None if isinstance(obj, dict) else _floats(obj)
    if uniform:
        pieces, floats = uniform
        leaves.append(floats)
        body = _joined([pieces] * len(obj), ",\n" + inner)
    elif not any(isinstance(item, (dict, list, tuple, np.ndarray)) for item in values):
        # only scalars: one C-encoder call, its item separator breaks the lines
        body = [json.dumps(obj, sort_keys=True, separators=(",\n" + inner, ": "))[1:-1]]
    elif isinstance(obj, dict):
        entries = []
        for key in sorted(obj):
            entry = _render(obj[key], inner, leaves, encode)
            entry[0] = encode(key) + ": " + entry[0]
            entries.append(entry)
        body = _joined(entries, ",\n" + inner)
    else:
        body = _joined([
            _row(item, leaves, encode) if isinstance(item, (list, tuple))
            else _render(item, inner, leaves, encode)
            for item in obj
        ], ",\n" + inner)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    body[0] = brackets[0] + "\n" + inner + body[0]
    body[-1] += "\n" + pad + brackets[1]
    return body


def _row(row, leaves, encode):
    """The pieces of one row, as _render makes them."""
    uniform = _floats([row])
    if not uniform:
        return [encode(row)]
    leaves.append(uniform[1])
    return uniform[0]


def render_report(payload):
    """Deterministic JSON text for a report object whose keys are strings.

    The float leaves are formatted _BLOCK at a time, and each block's texts
    are joined with the pieces between them, so only one block's texts
    exist at once; the floats that are not finite keep json's NaN,
    Infinity and -Infinity.
    """
    leaves, encode = [], _encoder()
    pieces = _render(payload, "", leaves, encode)
    values = np.concatenate([[], *leaves])
    chunks = [pieces[0]]
    for lo in range(0, len(values), _BLOCK):
        block = values[lo : lo + _BLOCK]
        # one UCS4 code point per byte: numpy's str arrays give str objects
        texts = _float_bytes(block).astype(np.uint32).view("U%d" % _CHARS).ravel().tolist()
        for i in np.flatnonzero(~np.isfinite(block)).tolist():
            texts[i] = encode(float(block[i]))
        mixed = [None] * (2 * len(texts))
        mixed[0::2] = texts
        mixed[1::2] = pieces[lo + 1 : lo + 1 + len(texts)]
        chunks.append("".join(mixed))
    return "".join([*chunks, "\n"])
