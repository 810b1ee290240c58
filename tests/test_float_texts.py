"""The vectorized float formatter: repr's text for every float, in both writers."""

import itertools
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sldlab import TrigPoly, certify_bound, cli, enumerate_classes, serialize
from sldlab.cli import main
from sldlab.serialize import _float_bytes, classset_dict, render_report, signal_dict

from oracles import class_csv_text, render_report_loop


def _float_texts(values):
    """The formatter's text of each value: its row without the NULs."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in _float_bytes(values)]


def _neighbours(points, steps=8):
    """points and the `steps` floats on each side of every point."""
    out = [points]
    for toward in (np.inf, -np.inf):
        x = points
        for _ in range(steps):
            x = np.nextafter(x, toward)
            out.append(x)
    return np.concatenate(out)


def _battery(rng):
    """About 300k floats, both signs, where a shortest-digit formatter slips."""
    exponents = np.repeat(np.arange(2048, dtype=np.uint64), 36)
    mantissas = rng.integers(0, 2**52, len(exponents), dtype=np.uint64)
    parts = [
        # random bit patterns over every exponent, subnormal, inf and nan included
        (exponents << np.uint64(52) | mantissas).view(np.float64),
        # Gaussian draws over 41 decades
        np.concatenate([rng.standard_normal(1200) * 10.0**k for k in range(-20, 21)]),
        # short decimals: 1 to 16 significant digits
        np.array([float("%.*g" % (digits, x)) for digits, x in zip(
            rng.integers(1, 17, 20000).tolist(),
            (rng.standard_normal(20000) * 10.0 ** rng.integers(-8, 9, 20000)).tolist())]),
        # integers up to 2**53
        rng.integers(0, 2**53, 10000, endpoint=True).astype(np.float64),
        np.arange(0.0, 2000.0),
        # around every power of ten from 1e-45 to 1e45, and of two
        _neighbours(np.array([float("1e%d" % k) for k in range(-45, 46)])),
        _neighbours(np.ldexp(1.0, np.arange(-1074, 1024)), steps=1),
        # subnormals and the special values
        rng.integers(1, 2**52, 3000, dtype=np.uint64).view(np.float64),
        np.array([0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    ]
    values = np.concatenate(parts)
    return np.concatenate([values, -values])


def test_float_texts_match_repr_on_a_battery():
    values = _battery(np.random.default_rng(20261019))
    assert len(values) >= 300_000
    got = _float_texts(values)
    want = list(map(repr, values.tolist()))
    assert len(got) == len(want)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, wrong[:10]


@given(st.lists(st.floats(), max_size=64))
def test_float_texts_match_repr(values):
    assert _float_texts(np.array(values, dtype=np.float64)) == list(map(repr, values))
    # at most 64 values go through repr(); repeated past the crossover, through the kernel
    many = np.tile(np.array(values, dtype=np.float64), -(-serialize._SHORT // max(len(values), 1)))
    assert _float_texts(many) == list(map(repr, many.tolist()))


@pytest.mark.parametrize("length", [
    serialize._BLOCK - 1, serialize._BLOCK, serialize._BLOCK + 1, 3 * serialize._BLOCK + 7])
def test_float_texts_do_not_depend_on_the_blocks(length):
    # slices of the battery that end just short of, at and past a block
    values = _battery(np.random.default_rng(20261019))
    for start in (0, 1000, len(values) - length):
        part = values[start : start + length]
        assert _float_texts(part) == list(map(repr, part.tolist()))


@pytest.mark.parametrize("length", [serialize._SHORT - 1, serialize._SHORT])
def test_float_texts_match_repr_on_both_sides_of_the_crossover(length, monkeypatch):
    rng = np.random.default_rng(length)
    values = rng.standard_normal(length) * 10.0 ** rng.integers(-12, 12, length)
    handed = []
    monkeypatch.setattr(serialize, "repr", lambda x: handed.append(x) or repr(x), raising=False)
    assert _float_texts(values) == list(map(repr, values.tolist()))
    # below the crossover every value goes through repr(), from it on none of these
    assert len(handed) == (length if length < serialize._SHORT else 0)


def test_report_floats_do_not_depend_on_the_blocks():
    # NaN and the infinities on both sides of a block's end, in a column of
    # floats, in pairs and in rows of three, whose blocks end elsewhere;
    # each as a float64 array, laid out a block at a time, and as a list
    block = serialize._BLOCK
    values = np.random.default_rng(7).standard_normal(6 * (block // 3 + 1))
    for at in (block - 2, 2 * block - 2):
        values[at : at + 4] = [np.nan, np.inf, -np.inf, np.nan]
    payload = {"column": values, "pairs": values.reshape(-1, 2), "rows": values.reshape(-1, 3),
               "column_list": values.tolist(), "pairs_list": values.reshape(-1, 2).tolist(),
               "rows_list": values.reshape(-1, 3).tolist()}
    text = render_report(payload)
    assert text == render_report_loop(payload)
    for word in ("NaN", "Infinity", "-Infinity"):
        assert text.count(word) >= 6
    assert "nan" not in text and "inf" not in text


def test_report_rows_of_a_list_past_the_crossover_keep_their_bytes():
    # 2,100 Python [re, im] rows: 4,200 floats, past the formatter's _SHORT
    # and a _BLOCK, with NaN, both infinities and -0.0 in the rows around
    # float 4,096
    rows = np.random.default_rng(11).standard_normal((2100, 2)).tolist()
    rows[2047:2050] = [[np.nan, np.inf], [-np.inf, -0.0], [-0.0, np.nan]]
    payload = {"rows": rows, "count": len(rows)}
    text = render_report(payload)
    assert text == render_report_loop(payload)
    assert "    [NaN, Infinity],\n    [-Infinity, -0.0],\n    [-0.0, NaN],\n" in text


def test_analyze_report_of_a_long_signal_keeps_its_bytes(tmp_path, monkeypatch):
    # a generic m = 50 signal: 101 coefficient pairs, 201 lag pairs and 100
    # root locations, each list well past the formatter's _SHORT floats
    angles = np.linspace(0.0, 2 * np.pi, 100, endpoint=False) + 0.1
    roots = np.where(np.arange(100) % 2, 0.5, 1.8) * np.exp(1j * angles)
    sig = tmp_path / "m50.json"
    sig.write_text(json.dumps(signal_dict(TrigPoly(m=50, coeffs=_poly(roots)))), encoding="utf-8")
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda args, payload: payloads.append(payload))
    assert main(["analyze", str(sig)]) == 0
    payload = payloads[0]
    assert len(payload["signal"]["coeffs"]) == 101
    assert len(payload["autocorrelation"]["coeffs"]) == 201
    assert render_report(payload) == render_report_loop(payload)


def _poly(roots):
    """Coefficients of prod (z - r), exact for the small dyadic roots below."""
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    return coeffs


# every reflection 1 / conj(r) is dyadic too, so each class row is exact:
# the samples and rows hold zeros, powers of two and short decimals
_DYADIC_ROOTS = {
    3: [-2j, -0.25j, -0.5, 0.25j, -0.5j, 0.25],
    4: [-2j, 2, 0.5j, -4, 2j, -0.25, -0.25j, -0.5],
    5: [-2, 4, 0.5, -0.25j, 2j, -4j, 0.25, 0.5j, -2j, 4j],
}


@pytest.mark.parametrize("m", sorted(_DYADIC_ROOTS))
def test_writers_reach_the_repr_fallback_and_keep_its_bytes(m, tmp_path, monkeypatch):
    p = TrigPoly(m=m, coeffs=_poly(_DYADIC_ROOTS[m]))
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps(signal_dict(p)), encoding="utf-8")
    out_csv, out_json = tmp_path / "classes.csv", tmp_path / "classes.json"
    assert main(["enumerate", str(sig), "--csv", str(out_csv), "--json", str(out_json)]) == 0
    cs = enumerate_classes(p)
    assert out_csv.read_bytes() == class_csv_text(cs.coeffs, m, p.period).encode("utf-8")
    text = out_json.read_text(encoding="utf-8")
    assert text == render_report_loop(json.loads(text))

    handed = []
    monkeypatch.setattr(serialize, "repr", lambda x: handed.append(x) or repr(x), raising=False)
    "".join(serialize.class_csv(cs))
    from_csv = len(handed)
    render_report({"classes": classset_dict(cs, certify_bound(cs))})
    assert from_csv and len(handed) > from_csv


def test_class_csv_keeps_the_bytes_of_the_values_repr_writes():
    # cells that are zeros, subnormals or beyond the formatter's exponents of
    # 1e-40..1e40 (those two go to repr), and intensities past the float
    # range, a square or a modulus: inf, where Python's abs or pow would raise
    rows = np.array([[0, 0, 0], [0, complex(-0.0, -0.0), 0], [0, 5e-324 + 2e-310j, 0],
                     [0, -3e-45 + 7e50j, 0], [1e-41, 2e-41j, 3e-41], [0, 1e200, 0],
                     [0, 1.3e308 + 1.3e308j, 0]])
    cs = SimpleNamespace(autocorr=SimpleNamespace(period=1.0), source_m=1,
                         exact_count=len(rows), coeffs=rows)
    with np.errstate(over="ignore"):
        want = class_csv_text(rows, 1, 1.0)
    assert "".join(serialize.class_csv(cs)) == want
    for cell in (",0.0,0.0,0.0\n", ",5e-324,2e-310,0.0\n", ",-3e-45,7e+50,", "e-81\n", ",inf\n"):
        assert cell in want
    # no sample above is -0.0; the formatter writes it, and the rest, as repr does
    special = np.array([-0.0, 0.0, -5e-324, 1e-45, -7e50, np.inf, -np.inf, np.nan])
    assert _float_texts(special) == list(map(repr, special.tolist()))


def test_class_csv_memory_stays_per_block():
    # 14 roots at distinct angles and radii: 4**7 = 16,384 classes, 128 blocks
    angles = np.linspace(0.0, 2 * np.pi, 14, endpoint=False) + 0.1
    roots = np.where(np.arange(14) % 2, 0.5, 1.8) * np.exp(1j * angles)
    cs = enumerate_classes(TrigPoly(m=7, coeffs=_poly(roots)))
    assert cs.exact_count == 4**7
    _float_texts(np.array([0.1]))  # the formatter's tables live for the process
    cells = 8 * serialize._SAMPLES * serialize._CSV_CLASSES  # one block's cells
    blocks = 8  # a 16th of the CSV: tracing every allocation is slow
    rows = 0
    tracemalloc.start()
    try:
        for chunk in itertools.islice(serialize.class_csv(cs), 1 + blocks):
            rows += chunk.count("\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 1 + blocks * cells // 8
    # about 67 bytes a cell; keeping each block's re texts makes it about
    # 129, and sampling every class before the first block about 590
    assert peak < 100 * cells, peak / cells


def test_report_memory_holds_one_block_of_texts():
    # 108,000 floats in a float64 array of 6,000 rows: 53 blocks
    rows = np.random.default_rng(5).normal(size=(6000, 18))
    payload = {"classes": {"count": 6000, "rows": rows}, "version": "0"}
    render_report({"a": [[0.1]]})  # the formatter's tables live for the process
    tracemalloc.start()
    try:
        text = render_report(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == render_report_loop(payload)
    # about 2.1 bytes per byte of text, nearly all of it the chunks and
    # their join; holding every float's text and a piece of template for
    # each until one join makes it about 10
    assert peak < 6 * len(text), peak / len(text)
