"""JSON input parsing, validation, and the writers of every report and CSV.

Complex numbers travel as [re, im] pairs. Inputs are checked before any
numerics run, so malformed files fail with a field path instead of a stack
trace. The check is a small hand-written validator whose spec is the
shipped schema.json (the signal, autocorrelation and constellation
formats): it accepts and rejects what that schema does and names the field
that jsonschema's best_match names. It also rejects every number that is
not finite as a float (NaN, Infinity, integers beyond the float range),
which the schema lets through. Report rendering is deterministic: sorted
keys, an indent of 2 and one trailing newline, except that each row of an
array (a list or tuple inside a list, such as one [re, im] root location)
is written on one line, as json's encoder writes it, and a numpy array as
the nested list it holds. The floats of a float64 array are written a
block at a time by a numpy formatter whose text is repr's, which is json's
for a finite float; everything else goes through one json C encoder per
report. The class CSV and the report arrays are laid out by one routine,
_canvas_text, on a NUL-padded byte canvas per block.
"""

import functools
import json
import math
import numbers
from dataclasses import asdict

import numpy as np

from .errors import ParseError, SchemaMismatch
from .roots import _CIRCLE_BAND
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


def _finite_pairs(items):
    """Whether items is a non-empty list of [re, im] lists of finite
    numbers that are not bools: what _pairs accepts, in one pass."""
    try:
        return type(items) is list and bool(items) and all(
            type(pair) is list and len(pair) == 2
            and type(pair[0]) in (int, float) and type(pair[1]) in (int, float)
            and math.isfinite(pair[0]) and math.isfinite(pair[1])
            for pair in items
        )
    except OverflowError:  # an integer beyond the float range
        return False


def _pairs(items, path, errors):
    """A non-empty JSON array of [re, im] number pairs.

    Input that passes _finite_pairs has nothing to record; any other takes
    the walk that names each field at fault.
    """
    if _finite_pairs(items):
        return
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


def rootset_dict(r):
    return {
        "degree": r.degree,
        "origin_mult": r.origin_mult,
        "leading_coeff": complex_pair(r.leading_coeff),
        "circle_band": _CIRCLE_BAND,
        "roots": [
            {
                "location": location,
                "multiplicity": k,
                "label": label,
                "cluster_diameter": diameter,
            }
            for location, k, label, diameter in zip(
                complex_pairs(r.locations), r.multiplicities.tolist(),
                r.labels.tolist(), r.diameters.tolist())
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
# Its shifts rely on numpy's rule that a count outside 0..63 shifts a
# nonnegative int64 to 0. Its remainders are n - n // d * d: numpy divides
# by a constant with a multiplication, at about the cost of an add, and its
# % and divmod cost about four times more.
_BLOCK = 4096  # values formatted per block; every temporary is per block
_SHORT = 200  # fewer values go through repr(), below the kernel's fixed cost
_E_MIN, _E_MAX = -40, 40  # decimal exponents of the vectorized path
_MARGIN = 1e-7  # least distance of a decision from its boundary, in last-digit units
_CHARS = 32  # bytes per value: four words, see _float_bytes
_ZEROS = 0x3030303030303030  # "0" in each byte of a word


@functools.cache
def _digit_tables():
    """_shortest's tables, built from exact integer arithmetic.

    pow10: row E - _E_MIN holds (hi, Dekker's two halves of hi, lo), hi + lo
    being 10**(16 - E) to about 106 bits: hi is the power rounded, lo the
    rest rounded. exponent, above: by biased binary exponent b, E - _E_MIN
    for the decimal exponent E of 2**(b - 1023), and the least double at or
    above 10**(E + 1). A value whose b lies outside the range returned
    with them, where E may leave the path, is replaced by 1.5 first.
    """
    pow10 = np.empty((_E_MAX - _E_MIN + 1, 4))
    for k, e in enumerate(range(_E_MIN, _E_MAX + 1)):
        # 10**(16 - e) = num / den, and hi = hi_num / hi_den exactly
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        big = hi * 134217729.0
        big -= big - hi
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        pow10[k] = hi, big, hi - big, lo
    exponent, above = np.full(2048, -_E_MIN), np.full(2048, np.inf)
    for b in range(1, 2047):
        k = b - 1023
        e = len(str(2**k)) - 1 if k >= 0 else -len(str(2**-k))
        if _E_MIN <= e < _E_MAX:
            exponent[b] = e - _E_MIN
            # 10**(e + 1) = num / den, and bound = bound_num / bound_den exactly
            num, den = 10 ** max(e + 1, 0), 10 ** max(-e - 1, 0)
            bound = num / den
            bound_num, bound_den = bound.as_integer_ratio()
            above[b] = bound if bound_num * den >= num * bound_den else np.nextafter(bound, np.inf)
    inside = np.flatnonzero(exponent != -_E_MIN)
    return pow10, exponent, above, (inside[0], inside[-1])


@functools.cache
def _text_tables():
    """_float_bytes' tables.

    quads: the four ASCII digits of each n < 10**4 as a little-endian word
    (a carry to 10**17 reads entry 10**4: such a value goes to repr). masks:
    row j, column k, word j of the mask of a text's first k bytes. layout:
    by E - _E_MIN, rows split (the digits before the point: all of a whole
    part, the first in the exponent form, none after "0."), least (the
    digits a whole part keeps, E + 2), lead (the "0." and zeros of 0.0001
    to 0.9 at bytes 1 to 5 of word 0), suffix (the exponent form's "e-05"
    or "e+16" at bytes 2 to 5 of word 3) and dot (the point, none after a
    "0." lead).
    """
    n = np.arange(10**4 + 1)
    quads = np.zeros(len(n), np.int64)
    for k, place in enumerate((1000, 100, 10, 1)):
        quads += (n // place % 10 + 48) << 8 * k
    masks = np.zeros((3, 25), np.int64)
    for k in range(25):
        full, part = divmod(k, 8)
        masks[:full, k] = -1
        masks[full:full + 1, k] = (1 << 8 * part) - 1
    e = np.arange(_E_MIN, _E_MAX + 1)
    expo = (e < -4) | (e >= 16)
    frac = ~expo & (e < 0)
    lead = [int.from_bytes(b"\0" + b"0." + b"0" * (-k - 1), "little") if f else 0
            for k, f in zip(e.tolist(), frac)]
    suffix = np.where(expo, (ord("e") | np.where(e < 0, ord("-"), ord("+")) << 8
                             | (48 + abs(e) // 10) << 16 | (48 + abs(e) % 10) << 24) << 16, 0)
    layout = np.stack([np.where(expo, 1, np.where(frac, 0, e + 1)), np.where(expo | frac, 0, e + 2),
                       lead, suffix, np.where(frac, 0, ord("."))])
    return quads, masks, layout


def _float_bytes(values, out=None):
    """repr(float(v)) for each v of a float64 array, as the rows of a uint8 array.

    A row's bytes other than NUL are the text; the writers squeeze the NULs
    out. out, if given, is the (len(values), _CHARS) array to fill, such as
    a column of a writer's canvas. Fewer than _SHORT values go through
    repr(); more are formatted _BLOCK at a time. _shortest gives each
    value's 17 digits, padded with zeros, and its exponent E, and a row is
    four 64-bit words: the sign and any "0." lead; then the digits up to the
    last one kept, those from the point on moved up a byte past the point
    (three words); and the exponent form's suffix in the spare bytes of the
    last word. Every placement is a mask or a shift of words, per value.
    The values _shortest could not certify go through repr().
    """
    if out is None:
        out = np.empty((len(values), _CHARS), np.uint8)
    if len(values) < _SHORT:
        out[...] = _text_rows(map(repr, values.tolist()), "S%d" % _CHARS)
        return out
    quads, masks, layout = _text_tables()
    for lo in range(0, len(values), _BLOCK):
        x = values[lo : lo + _BLOCK]
        digits, e, ok = _shortest(x)
        # the 17 digits in ASCII: eight, eight and one
        top = digits // 10**9
        low = digits - top * 10**9
        mid = low // 10
        s2 = low - mid * 10
        g = top // 10**4
        s0 = quads.take(g) | quads.take(top - g * 10**4) << 32
        g = mid // 10**4
        s1 = quads.take(g) | quads.take(mid - g * 10**4) << 32
        # the digits up to the last that is not 0: each word's highest byte
        # that is not 0 is its highest bit, the binary exponent of the word's
        # digit values as a float, over 8
        f0 = (s0 ^ _ZEROS).astype(np.float64).view(np.int64)
        f1 = (s1 ^ _ZEROS).astype(np.float64).view(np.int64) + (64 << 52)
        f2 = s2.astype(np.float64).view(np.int64) + (128 << 52)
        nsig = np.maximum(np.maximum(f0, f1), f2) - (1015 << 52) >> 55
        s2 += 48
        split, least, lead, suffix, dot = np.take(layout, e, axis=1)
        keep = np.maximum(nsig, least)
        dot *= keep > split
        # the digits kept, and those from the point on, to move up a byte
        k0, k1, k2 = (s & m.take(keep) for s, m in zip((s0, s1, s2), masks))
        l0, l1, l2 = (k & m.take(split) for k, m in zip((k0, k1, k2), masks))
        k0 ^= l0
        k1 ^= l1
        k2 ^= l2
        at = split << 3
        words = np.empty((len(x), 4), np.int64)
        words[:, 0] = lead | x.view(np.int64) >> 63 & ord("-")
        words[:, 1] = l0 | k0 << 8 | dot << at
        words[:, 2] = l1 | k1 << 8 | k0 >> 56 | dot << at - 64
        words[:, 3] = l2 | k2 << 8 | k1 >> 56 | dot << at - 128 | suffix
        rows = out[lo : lo + len(x)]
        rows[...] = words.view(np.uint8)
        missed = np.flatnonzero(~ok)
        rows[missed] = _text_rows(map(repr, x[missed].tolist()), "S%d" % _CHARS)
    return out


def _text_rows(texts, dtype=np.bytes_):
    """ASCII texts as the NUL-padded rows of a uint8 array, as wide as dtype."""
    texts = np.array(list(texts), dtype)
    return texts.view(np.uint8).reshape(-1, texts.itemsize)


def _canvas_text(shape, fields):
    """The text of a block of cells laid out on one NUL-padded uint8 canvas.

    The canvas is shape + (width,): a row per cell, holding the fields side
    by side. A field is uint8 rows of NUL-padded text, broadcast into its
    columns; a float64 array of the cells' values in order, whose repr
    texts _float_bytes writes into _CHARS columns in place; or a pair
    (texts, index) of such text rows and each cell's row of them, in order,
    gathered into the columns _BLOCK cells at a time. The text is the
    canvas without its NULs, decoded once.
    """
    widths = [field[0].shape[-1] if isinstance(field, tuple) else
              _CHARS if field.dtype == np.float64 else field.shape[-1] for field in fields]
    at = np.cumsum([0, *widths])
    canvas = np.empty(shape + (at[-1],), np.uint8)
    rows = canvas.reshape(-1, at[-1])
    for field, lo, hi in zip(fields, at, at[1:]):
        if isinstance(field, tuple):
            table, index = field
            for i in range(0, len(rows), _BLOCK):
                rows[i : i + _BLOCK, lo:hi] = table[index[i : i + _BLOCK]]
        elif field.dtype == np.float64:
            _float_bytes(field.reshape(-1), out=rows[:, lo:hi])
        else:
            canvas[..., lo:hi] = field
    return canvas[canvas != 0].tobytes().decode("ascii")


def _shortest(x):
    """(digits, E, ok): repr's digits of each |x| as a 17-digit integer, and E - _E_MIN.

    For a = |x| with decimal exponent E, P = a * 10**(16 - E) lies in
    [10**16, 10**17). E comes exactly from tables by a's binary exponent:
    that of its power of two, or one more at or above the next power of
    ten. P is formed once as p + err: p = a * hi rounded, err the rest by
    Dekker's product plus a * lo, together within about 1e-14 of a unit of
    P. p is an integer, as every double above 2**53 is. The 17-digit
    candidate is D17 = round(P), with remainder P - D17; the 16- and
    15-digit ones round P / 10 and P / 100, found from D17's last two
    digits and that remainder. repr prints the fewest digits that read back
    as x, the nearest of them where several do: at 15 digits or fewer at
    most one decimal reads back, so the 15-digit candidate with its trailing
    zeros dropped when it lies within half an ulp of x; else the rounded,
    so nearest, 16-digit one when it does; else D17, which always does.

    Every decision must clear _MARGIN of a last-digit unit, in one mask:
    each candidate's distance against half an ulp, and the chosen
    candidate's rounding against a tie. ok is False for a value that misses
    one, that carries to 10**17, or that is subnormal, not finite, a power
    of two (whose ulp below is half the one above) or outside the tables;
    its digits are those of 1.5. Zero has the digits of 0 and E = 0.
    """
    pow10, exponent, above, (b_lo, b_hi) = _digit_tables()
    bits = x.view(np.int64)
    bexp = bits >> 52 & 0x7FF
    ok = (bexp >= b_lo) & (bexp <= b_hi) & (bits << 12 != 0)
    zero = bits << 1 == 0
    a = np.abs(x)
    np.copyto(a, 1.5, where=~ok)
    bexp = a.view(np.int64) >> 52
    e = exponent.take(bexp)
    e += a >= above.take(bexp)
    hi, big, small, lo = pow10.take(e, axis=0).T
    p = a * hi
    a_big = a * 134217729.0
    a_big -= a_big - a
    a_small = a - a_big
    err = a_big * big
    err -= p
    err += a_big * small
    err += a_small * big
    err += a_small * small
    err += a * lo
    r = np.rint(err)
    err -= r  # now P - D17
    d17 = p.astype(np.int64)
    d17 += r.astype(np.int64)
    half = hi * ((bexp - 53) << 52).view(np.float64)  # half an ulp of a, in units of P
    # distances from the rounding ties of P / 10 and P / 100 (in units of P,
    # 5 and 50 at best), and of the 16- and 15-digit candidates from the tie
    # where they would stop reading back as x
    q10 = d17 // 10
    q100 = q10 // 10
    tie16 = (d17 - q10 * 10) + err
    tie15 = (d17 - q100 * 100) + err
    q10 += tie16 >= 5
    q100 += tie15 >= 50
    tie16 = np.abs(tie16 - 5, out=tie16)
    tie15 = np.abs(tie15 - 50, out=tie15)
    back16 = 5 - half
    back15 = back16 + 45
    use16 = tie16 > back16
    use15 = tie15 > back15
    use16 ^= use15  # now apart, so each row of digits changes at most once
    digits = d17
    digits -= use16 * (d17 - q10 * 10)
    digits -= use15 * (d17 - q100 * 100)
    tie = np.where(use16, tie16 * 0.1, np.abs(np.abs(err) - 0.5))
    ok &= ((np.abs(tie15 - back15) > 100 * _MARGIN) & (np.abs(tie16 - back16) > 10 * _MARGIN)
           & (tie > _MARGIN) & (digits < 10**17))
    digits *= ~zero
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


_SLOT = "\0"  # a float's place in an item's template, where the template splits


def _template(shape):
    """json's one-line text of an array item of this shape, split at each float."""
    template = _SLOT
    for size in reversed(shape):
        template = "[" + ", ".join([template] * size) + "]"
    return template.split(_SLOT)


def _joined(texts, sep):
    """sep.join of texts, each given as its parts, as parts."""
    out = list(texts[0])
    for parts in texts[1:]:
        out.append(sep)
        out += parts
    return out


def _render(obj, pad, encode):
    """indent=2 layout, except that a list or tuple inside a list is one line.

    The text comes as its parts: strings, and a (floats, pieces, sep) node
    for each float64 array, whose text _node_text writes. Every other value
    is encode's text.
    """
    inner = pad + "  "
    if isinstance(obj, np.ndarray) and not (obj.dtype == np.float64 and obj.ndim and obj.size):
        obj = obj.tolist()  # only a float64 array with leaves is a node of floats
    if not (isinstance(obj, (dict, list, tuple, np.ndarray)) and len(obj)):
        return [encode(obj)]
    values = obj.values() if isinstance(obj, dict) else obj
    if isinstance(obj, np.ndarray):
        body = [(obj.ravel(), _template(obj.shape[1:]), ",\n" + inner)]
    elif not any(isinstance(item, (dict, list, tuple, np.ndarray)) for item in values):
        # only scalars: one C-encoder call, its item separator breaks the lines
        body = [json.dumps(obj, sort_keys=True, separators=(",\n" + inner, ": "))[1:-1]]
    elif isinstance(obj, dict):
        body = _joined([[encode(key) + ": ", *_render(obj[key], inner, encode)]
                        for key in sorted(obj)], ",\n" + inner)
    else:
        body = _joined([
            [encode(item)] if isinstance(item, (list, tuple)) else _render(item, inner, encode)
            for item in obj
        ], ",\n" + inner)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return [brackets[0] + "\n" + inner, *body, "\n" + pad + brackets[1]]


def _node_text(values, pieces, sep, encode):
    """The text of a node's items, joined by sep, as a chunk per block of items.

    Each item is pieces[0], a float, pieces[1], ..., a float, pieces[-1].
    A block of about _BLOCK floats is one _canvas_text with a cell per
    float: the float's text, then the text up to the next float, which
    after an item's last float is the item's end, sep and the next item's
    start. On a block that holds NaN or an infinity, the floats are
    formatted first and those texts patched to json's spellings. The last
    item's sep and start are cut.
    """
    k = len(pieces) - 1  # floats per item
    after = [*pieces[1:-1], pieces[-1] + sep + pieces[0]]
    after = _text_rows(after, "S%d" % max(map(len, after)))
    per = max(1, _BLOCK // k)  # items per block
    yield pieces[0]
    for lo in range(0, len(values), per * k):
        block = values[lo : lo + per * k]
        shape = (len(block) // k, k)
        odd = np.flatnonzero(~np.isfinite(block))
        if len(odd):
            texts = _float_bytes(block)
            texts[odd] = _text_rows(map(encode, block[odd].tolist()), "S%d" % _CHARS)
            block = texts.reshape(shape + (_CHARS,))
        text = _canvas_text(shape, [block, after])
        yield text if lo + per * k < len(values) else text[: len(text) - len(sep + pieces[0])]


def render_report(payload):
    """Deterministic JSON text for a report object whose keys are strings.

    The floats of each float64 array are written by _node_text, a block at
    a time, so only one block's canvas exists at once; the floats that are
    not finite keep json's NaN, Infinity and -Infinity.
    """
    encode = _encoder()
    chunks = []
    for part in _render(payload, "", encode):
        if isinstance(part, str):
            chunks.append(part)
        else:
            chunks += _node_text(*part, encode)
    chunks.append("\n")
    return "".join(chunks)


_SAMPLES = 64  # circle samples per representative in the class CSV
_CSV_CLASSES = 128  # representatives formatted per chunk


def class_csv(cs):
    """Class CSV text in chunks: 64 circle samples per representative.

    Representative b is sampled at t_j = j * T / 64 as
    y(t_j) = sum_k b_k exp(2 pi i k t_j / T), k = -m..m: one phases @ row
    per class, with the (64, 2m+1) phase matrix built once. A product of
    the whole block, or einsum, rounds 18% to 71% of the parts differently.
    The intensity is Python's abs(z) ** 2: numpy's hypot squared by libm's
    pow, once per distinct modulus of a block. On perfbench's seed-1
    classes-m5 draw, x * x differs from pow in the last bit on 157 of the
    65,536 samples, and a block's 8,192 samples have 930 to 1,295 distinct
    moduli (1,054 on average); np.unique and the pow loop take about 5 ms
    of an op there. A block of _CSV_CLASSES classes is one _canvas_text, a
    cell per sample: class id, ",sample,t," lead, separators, and the repr
    texts of re, im and intensity.
    """
    yield "class,sample,t,re,im,intensity\n"
    period = cs.autocorr.period
    t = np.arange(_SAMPLES) * (period / _SAMPLES)
    k = np.arange(-cs.source_m, cs.source_m + 1)
    phases = np.exp(2j * np.pi * np.multiply.outer(t, k) / period)
    leads = _text_rows(",%d,%r," % (j, tj) for j, tj in enumerate(t.tolist()))
    comma, newline = _text_rows(",\n")
    for lo in range(0, cs.exact_count, _CSV_CLASSES):
        block = cs.coeffs[lo : lo + _CSV_CLASSES]
        values = np.stack([phases @ row for row in block]).ravel()
        with np.errstate(over="ignore"):  # a modulus or its square past the float range is inf
            moduli, cell = np.unique(np.hypot(values.real, values.imag), return_inverse=True)
            squares = _float_bytes(np.array([h ** 2 for h in moduli]))
        shape = (len(block), _SAMPLES)
        ids = _text_rows(map(str, range(lo, lo + len(block))))
        yield _canvas_text(shape, [ids[:, None], leads, values.real, comma, values.imag, comma,
                                   (squares, cell.reshape(-1)), newline])


def gap_csv(reports):
    """The gap sweep's CSV text: a row per order m."""
    yield "m,i_xy,i_xs,per_dim_gap,bound\n"
    for r in reports:
        yield ",".join(map(repr, (r.m, r.i_xy, r.i_xs, r.per_dim_gap, r.bound))) + "\n"
