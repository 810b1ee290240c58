"""JSON parsing, validation messages, and deterministic rendering."""

import copy
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sldlab
from sldlab import TrigPoly, autocorrelation, errors, serialize
from sldlab.cli import main
from sldlab.serialize import (
    _complex_vector,
    autocorr_dict,
    complex_pair,
    complex_pairs,
    load_json,
    parse_autocorr,
    parse_constellation,
    parse_signal,
    render_report,
    signal_dict,
    validate,
)

from oracles import complex_pairs_loop, complex_vector_loop, render_report_loop


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_load_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"m": 1,\n  "coeffs": [,]}', encoding="utf-8")
    with pytest.raises(errors.ParseError) as exc:
        load_json(str(path))
    assert "line 2" in str(exc.value)
    assert "column" in str(exc.value)


def test_load_json_missing_file(tmp_path):
    with pytest.raises(errors.ParseError) as exc:
        load_json(str(tmp_path / "nope.json"))
    assert "cannot read" in str(exc.value)


def test_parse_signal_roundtrip(tmp_path):
    p = TrigPoly(m=1, coeffs=[0.5 - 0.25j, 2.0, 1j])
    path = _write(tmp_path, "sig.json", signal_dict(p))
    q = parse_signal(load_json(path))
    assert q.m == 1
    assert q.period == 1.0
    assert np.array_equal(q.coeffs, p.coeffs)


def test_parse_signal_length_message(tmp_path):
    obj = {"m": 1, "coeffs": [[0, 0], [1, 0]]}
    with pytest.raises(errors.SchemaMismatch) as exc:
        parse_signal(obj)
    assert "expected 2m+1 = 3 entries, got 2" in str(exc.value)


def test_parse_signal_type_message():
    with pytest.raises(errors.SchemaMismatch) as exc:
        parse_signal({"m": "x", "coeffs": [[1, 0]]})
    assert "signal: field m:" in str(exc.value)
    assert "integer" in str(exc.value)


def test_parse_signal_rejects_bare_floats():
    with pytest.raises(errors.SchemaMismatch):
        parse_signal({"m": 0, "coeffs": [1.0]})


def test_parse_autocorr_roundtrip(tmp_path):
    s = autocorrelation(TrigPoly(m=1, coeffs=[0, 1, 1]))
    path = _write(tmp_path, "ac.json", autocorr_dict(s))
    t = parse_autocorr(load_json(path))
    assert t.m == 1
    assert np.array_equal(t.coeffs, s.coeffs)


def test_parse_autocorr_length_message():
    obj = {"m": 1, "coeffs": [[0, 0], [1, 0], [2, 0]]}
    with pytest.raises(errors.SchemaMismatch) as exc:
        parse_autocorr(obj)
    assert "expected 4m+1 = 5 entries, got 3" in str(exc.value)


def test_parse_constellation_normalizes():
    obj = {
        "m": 0,
        "points": [
            {"coeffs": [[1, 0]], "probability": 2.0},
            {"coeffs": [[2, 0]], "probability": 6.0},
        ],
    }
    c = parse_constellation(obj)
    assert np.allclose(c.probs, [0.25, 0.75])
    assert len(c.signals) == 2


def test_parse_constellation_point_length():
    obj = {
        "m": 1,
        "points": [{"coeffs": [[1, 0]], "probability": 1.0}],
    }
    with pytest.raises(errors.SchemaMismatch) as exc:
        parse_constellation(obj)
    assert "points.0.coeffs" in str(exc.value)


def test_complex_pair_encoding():
    assert complex_pair(1.5 - 2j) == [1.5, -2.0]
    assert complex_pairs(np.array([1j, 2.0])) == [[0.0, 1.0], [2.0, 0.0]]


def test_complex_pairs_match_per_element_loop_bitwise():
    tiny = np.nextafter(0.0, 1.0)
    edge = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                     complex(tiny, -tiny), complex(5e-310, -2.2e-308),
                     complex(1.797e308, -1.797e308), complex(-1.797e308, 1.797e308)])
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
    # repr tells -0.0 from 0.0, prints every float exactly and names
    # anything that is not a Python float
    for vec in (edge, *rows):
        assert repr(complex_pairs(vec)) == repr(complex_pairs_loop(vec))
    assert repr(complex_pairs(rows)) == repr([complex_pairs_loop(row) for row in rows])


def test_render_report_deterministic():
    payload = {"b": 1, "a": {"z": [1, 2], "y": 0.5}}
    text = render_report(payload)
    assert text == render_report(payload)
    assert text.endswith("}\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == payload


# JSON-like trees: floats include NaN and both infinities, text is not ASCII-only
_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=40,
)


def _holds_row(tree):
    """Whether a list or tuple sits directly inside a list or tuple somewhere in tree."""
    if isinstance(tree, dict):
        return any(map(_holds_row, tree.values()))
    if isinstance(tree, (list, tuple)):
        return any(isinstance(item, (list, tuple)) or _holds_row(item) for item in tree)
    return False


@settings(max_examples=300)
@given(_json_trees)
@example({})
@example([])
@example({"a": [[], {}], "b": ({"c": [float("nan"), -0.0, float("-inf")]},), "\u00e9": "\u2603"})
def test_render_report_keeps_values_and_layout(tree):
    text = render_report(tree)
    assert json.dumps(json.loads(text), sort_keys=True) == json.dumps(tree, sort_keys=True)
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text.isascii()
    if not _holds_row(tree):
        # without a row there is nothing to put on one line
        assert text == json.dumps(tree, sort_keys=True, indent=2) + "\n"


@settings(max_examples=300)
@given(_json_trees)
@example({"residuals": [0.5, float("nan"), -0.0], "within_bound": True, "rows": [[1.0, 2.0]]})
@example([{"a": None}, [], {}, "x", ("y",)])
def test_render_report_bytes_match_per_scalar_encoding(tree):
    # containers of scalars are encoded in one call; the text is the same
    assert render_report(tree) == render_report_loop(tree)


def test_class_report_bytes_match_per_scalar_encoding():
    p = TrigPoly(m=5, coeffs=np.random.default_rng(11).standard_normal((11, 2)) @ [1, 1j])
    cs = sldlab.enumerate_classes(p)
    payload = {"config": {"seed": 12345, "tol": 1e-08, "label": "m5"},
               "classes": serialize.classset_dict(cs, sldlab.certify_bound(cs))}
    assert len(payload["classes"]["residuals"]) == 1024
    assert render_report(payload) == render_report_loop(payload)


def test_enumerate_report_has_one_line_per_representative(tmp_path):
    m = 3
    coeffs = np.random.default_rng(5).standard_normal((2 * m + 1, 2)).tolist()
    sig = _write(tmp_path, "sig.json", {"m": m, "coeffs": coeffs})
    out = tmp_path / "report.json"
    assert main(["enumerate", sig, "--json", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    classes = json.loads(text)["classes"]
    for key, rows in (("representatives", 4 ** m), ("autocorrelation", 4 * m + 1)):
        assert len(classes[key]) == rows
        start = lines.index('    "%s": [' % key)
        assert lines[start + 1 + rows] in ("    ]", "    ],")
        # each row is whole on its own line, so no line holds a bare float of a row
        block = lines[start + 1 : start + 1 + rows]
        assert [json.loads(line.strip().rstrip(",")) for line in block] == classes[key]


@given(
    st.integers(0, 3),
    st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
        ),
        min_size=1,
        max_size=9,
    ),
)
def test_signal_dict_reparses_to_same_values(m, pairs):
    if len(pairs) != 2 * m + 1:
        return
    coeffs = np.array([complex(a, b) for a, b in pairs])
    if not np.abs(coeffs).max():
        return
    p = TrigPoly(m=m, coeffs=coeffs)
    again = parse_signal(json.loads(render_report(signal_dict(p))))
    assert np.array_equal(again.coeffs, p.coeffs)
    assert again.m == p.m and again.period == p.period


def test_load_json_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"m": 0, "coeffs": [[1, 0]], "\xff": 1}')
    with pytest.raises(errors.ParseError) as exc:
        load_json(str(path))
    assert "is not valid JSON" in str(exc.value)


def test_load_json_rejects_integers_beyond_the_digit_limit(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"m": 0, "coeffs": [[%s, 0]]}' % ("1" * 5000), encoding="utf-8")
    with pytest.raises(errors.ParseError) as exc:
        load_json(str(path))
    assert "is not valid JSON" in str(exc.value)


# Non-finite numbers: json.load accepts NaN, Infinity and integers beyond the
# float range, and schema.json lets them through; the validator does not.

NON_FINITE = [
    (float("nan"), "NaN"),
    (float("inf"), "Infinity"),
    (float("-inf"), "-Infinity"),
    (10 ** 400, "1" + "0" * 400),
]


@pytest.mark.parametrize("value, spelled", NON_FINITE)
@pytest.mark.parametrize("parse, kind, doc, field", [
    (parse_signal, "signal",
     lambda bad: {"m": 1, "coeffs": [[1, 0], [bad, 0], [0.5, 0]]}, "coeffs.1.0"),
    (parse_signal, "signal",
     lambda bad: {"m": 0, "coeffs": [[1, bad]]}, "coeffs.0.1"),
    (parse_signal, "signal",
     lambda bad: {"m": 0, "period": bad, "coeffs": [[1, 0]]}, "period"),
    (parse_autocorr, "autocorrelation",
     lambda bad: {"m": 0, "coeffs": [[bad, 0]]}, "coeffs.0.0"),
    (parse_autocorr, "autocorrelation",
     lambda bad: {"m": 0, "period": bad, "coeffs": [[1, 0]]}, "period"),
    (parse_constellation, "constellation",
     lambda bad: {"m": 0, "points": [{"coeffs": [[1, 0]], "probability": 1},
                                     {"coeffs": [[0, bad]], "probability": 1}]},
     "points.1.coeffs.0.1"),
    (parse_constellation, "constellation",
     lambda bad: {"m": 0, "period": bad,
                  "points": [{"coeffs": [[1, 0]], "probability": 1}]}, "period"),
    (parse_constellation, "constellation",
     lambda bad: {"m": 0, "points": [{"coeffs": [[1, 0]], "probability": bad}]},
     "points.0.probability"),
])
def test_non_finite_numbers_are_rejected(parse, kind, doc, field, value, spelled):
    with pytest.raises(errors.SchemaMismatch) as exc:
        parse(doc(value))
    assert str(exc.value) == "%s: field %s: %s is not a finite number" % (kind, field, spelled)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_analyze_reports_non_finite_coefficient_without_traceback(tmp_path, capsys, literal):
    path = tmp_path / "sig.json"
    path.write_text('{"m": 1, "coeffs": [[1, 0], [%s, 0], [0.5, 0]]}' % literal,
                    encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: signal: field coeffs.1.0: ")
    assert "not a finite number" in err
    assert "Traceback" not in err


def _two_points(p, q):
    return {"m": 1, "points": [{"coeffs": [[0, 0], [2, 0], [0, 0]], "probability": p},
                               {"coeffs": [[0, 0], [3, 0], [0, 0]], "probability": q}]}


def test_parse_constellation_normalizes_an_overflowing_sum():
    c = parse_constellation(_two_points(1e308, 1e308))
    assert c.probs.tolist() == [0.5, 0.5]
    c = parse_constellation(_two_points(1.5e308, 5e307))
    assert c.probs.tolist() == pytest.approx([0.75, 0.25], rel=1e-15)


def test_gap_accepts_probabilities_whose_sum_overflows(tmp_path, capsys):
    path = tmp_path / "cons.json"
    path.write_text(json.dumps(_two_points(1e308, 1e308)), encoding="utf-8")
    assert main(["gap", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["gap"]["pass"] is True


@given(st.lists(st.one_of(st.floats(1e-100, 1e100), st.integers(1, 10 ** 6)),
                min_size=1, max_size=6))
@example([1e308, 7e307])
@example([10 ** 308, 10 ** 308])
def test_parse_constellation_keeps_finite_sums_bit_identical(probs):
    total = sum(probs)
    assert total != math.inf
    doc = {"m": 0, "points": [{"coeffs": [[1, 0]], "probability": p} for p in probs]}
    want = np.array([p / total for p in probs])
    assert parse_constellation(doc).probs.tobytes() == want.tobytes()


# _complex_vector builds one float64 (n, 2) array and views it as complex; it
# must give the bits the per-pair complex() loop gave.

PART = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2 ** 1023), 2 ** 1023),
    st.sampled_from([0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 2 ** 53 + 1]),
)


@given(st.lists(st.lists(PART, min_size=2, max_size=2), min_size=1, max_size=8))
@example([[-0.0, -0.0], [0, -0.0], [5e-324, -5e-324], [1.7976931348623157e308, 2 ** 1023]])
def test_complex_vector_matches_loop_bitwise(pairs):
    got = _complex_vector(pairs)
    want = complex_vector_loop(pairs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# The validator against jsonschema: same accept/reject decision and the same
# message, hence the same field, on valid documents of the three formats and
# on mutations of them. Finite numbers only; rejecting the others is the one
# documented difference.

@functools.lru_cache(maxsize=None)
def _draft_validator(kind):
    jsonschema = pytest.importorskip("jsonschema")
    spec = json.loads(Path(serialize.__file__).with_name("schema.json").read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(dict(spec["$defs"][kind], **{"$defs": spec["$defs"]}))


def _reference(doc, kind):
    """What the jsonschema Draft 2020-12 validator and best_match say about doc."""
    jsonschema = pytest.importorskip("jsonschema")
    found = sorted(_draft_validator(kind).iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not found:
        return None
    best = jsonschema.exceptions.best_match(found)
    path = ".".join(str(part) for part in best.absolute_path) or "(root)"
    return "%s: field %s: %s" % (kind, path, best.message)


def _verdict(doc, kind):
    try:
        validate(doc, kind)
    except errors.SchemaMismatch as exc:
        return str(exc)
    return None


NUMBER = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                   st.floats(-1e6, 1e6, allow_nan=False), st.just(-0.0))
POSITIVE = st.one_of(st.integers(1, 100), st.floats(1e-6, 1e6))
PAIRS = st.lists(st.lists(NUMBER, min_size=2, max_size=2), min_size=1, max_size=4)


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(["signal", "autocorrelation", "constellation"]))
    doc = {"m": draw(st.integers(0, 3))}
    if draw(st.booleans()):
        doc["period"] = draw(POSITIVE)
    if kind == "constellation":
        point = st.fixed_dictionaries({"coeffs": PAIRS, "probability": POSITIVE})
        doc["points"] = draw(st.lists(point, min_size=1, max_size=3))
    else:
        doc["coeffs"] = draw(PAIRS)
    return kind, doc


def _slots(node):
    """(container, key) of every value below node, parents first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, value in items:
        yield node, key
        yield from _slots(value)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


MUTATIONS = ["missing key", "extra key", "wrong type", "bool for number",
             "integral float m", "negative m", "period <= 0", "empty coeffs",
             "pair of 1", "pair of 3", "not an object"]
WRONG = st.sampled_from(["x", None, {}, {"a": 1}, [], [1, 0], [[1, 0]], 2.5, 7, True])


def _mutate(draw, doc):
    op = draw(st.sampled_from(MUTATIONS))
    slots = list(_slots(doc))

    def pick(pred):
        chosen = [(node, key) for node, key in slots if pred(node, key)]
        return draw(st.sampled_from(chosen)) if chosen else (None, None)

    if op == "not an object":
        return draw(st.sampled_from(["x", None, 3, [], [doc]]))
    if op == "missing key":
        node, key = pick(lambda node, key: isinstance(node, dict))
        if node is not None:
            del node[key]
    elif op == "extra key":
        dicts = [doc] + [node[key] for node, key in slots if isinstance(node[key], dict)]
        node = draw(st.sampled_from(dicts))
        node[draw(st.sampled_from(["extra", "m", "period", "coeffs", "points", "probability"]))] = 1
    elif op == "wrong type":
        node, key = pick(lambda node, key: True)
        if node is not None:
            node[key] = copy.deepcopy(draw(WRONG))
    elif op == "bool for number":
        node, key = pick(lambda node, key: _is_number(node[key]))
        if node is not None:
            node[key] = draw(st.booleans())
    elif op == "integral float m" and _is_number(doc.get("m")):
        doc["m"] = float(doc["m"]) + draw(st.sampled_from([0.0, 0.5]))
    elif op == "negative m":
        doc["m"] = -draw(st.integers(1, 3))
    elif op == "period <= 0":
        node, key = pick(lambda node, key: key in ("period", "probability"))
        node, key = (node, key) if node is not None else (doc, "period")
        node[key] = draw(st.sampled_from([0, 0.0, -0.0, -1, -2.5]))
    elif op == "empty coeffs":
        node, key = pick(lambda node, key: key in ("coeffs", "points"))
        if node is not None:
            node[key] = []
    else:
        node, key = pick(lambda node, key: isinstance(node[key], list)
                         and any(_is_number(x) for x in node[key]))
        if node is not None:
            node[key] = node[key][:1] if op == "pair of 1" else node[key] + [0]
    return doc


@st.composite
def mutated_documents(draw):
    kind, doc = draw(documents())
    for _ in range(draw(st.integers(1, 3))):
        if isinstance(doc, dict):
            doc = _mutate(draw, doc)
    return kind, doc


@settings(max_examples=150)
@given(documents())
def test_validator_accepts_what_jsonschema_accepts(case):
    kind, doc = case
    assert _reference(doc, kind) is None
    assert _verdict(doc, kind) is None


@settings(max_examples=600)
@given(mutated_documents())
def test_validator_matches_jsonschema_on_mutations(case):
    kind, doc = case
    assert _verdict(doc, kind) == _reference(doc, kind)


@pytest.mark.parametrize("kind, doc", [
    ("signal", {"coeffs": [[1, 0]]}),
    ("signal", {"x": 1, "y": 2}),
    ("signal", {"m": 0, "coeffs": [[1, 0]], "b": 1, "a": 2}),
    ("signal", {"m": "x", "period": -1, "coeffs": [[1, 0]]}),
    ("signal", {"m": True, "coeffs": [[1, 0]]}),
    ("signal", {"m": 1.0, "coeffs": [[1, 0]]}),
    ("signal", {"m": -1.5, "coeffs": []}),
    ("signal", {"m": -1, "coeffs": [[1, 0]]}),
    ("signal", {"m": 0, "period": 0, "coeffs": [[1, 0]]}),
    ("signal", {"m": 0, "coeffs": [[1, 2, 3], [1]]}),
    ("signal", {"m": 0, "coeffs": [[1, "a"], [True, None]]}),
    ("signal", {"m": 0, "coeffs": [["a"], [1, 0]]}),
    ("autocorrelation", {"m": 0, "coeffs": "abc"}),
    ("autocorrelation", [{"m": 0, "coeffs": [[1, 0]]}]),
    ("constellation", {"m": 0, "points": []}),
    ("constellation", {"m": 0, "points": [
        {"coeffs": [[1, 0]], "probability": 0},
        {"coeffs": [[1]], "probability": True, "z": 1},
        5,
    ]}),
    ("constellation", {"m": 0, "points": [{"coeffs": [[1, 0]]}, {"probability": 1}]}),
])
def test_validator_matches_jsonschema_on_examples(kind, doc):
    assert _verdict(doc, kind) == _reference(doc, kind)


def test_import_does_not_load_jsonschema():
    src = str(Path(sldlab.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + inherited if inherited else src)
    code = "import sys, sldlab.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.strip() == "False"
