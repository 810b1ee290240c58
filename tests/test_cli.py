"""Command-line driver: exit codes, report shapes, determinism."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sldlab import TrigPoly, autocorrelation, cli, enumerate_classes, serialize
from sldlab.cli import _build_parser, main
from sldlab.equivalence import EquivalenceVerdict
from sldlab.serialize import load_json, parse_signal, signal_dict

from oracles import class_csv_text, equiv_battery, eval_series


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def sig_shift(tmp_path):
    return write_json(tmp_path, "sig.json", {"m": 1, "coeffs": [[0, 0], [1, 0], [1, 0]]})


@pytest.fixture
def sig_flipped(tmp_path):
    return write_json(tmp_path, "sig2.json", {"m": 1, "coeffs": [[1, 0], [1, 0], [0, 0]]})


@pytest.fixture
def ac_shift(tmp_path):
    return write_json(
        tmp_path, "ac.json",
        {"m": 1, "coeffs": [[0, 0], [1, 0], [2, 0], [1, 0], [0, 0]]},
    )


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_analyze(sig_shift, capsys):
    assert main(["analyze", sig_shift]) == 0
    out = read_json(capsys)
    assert out["roots"]["degree"] == 2
    # the lift of a shifted impulse pair is z + z^2: one origin root,
    # one circle root at -1, nothing to pair into orbits
    assert out["origin_mult"] == 1
    assert out["orbits"] == []
    labels = {r["label"] for r in out["roots"]["roots"]}
    assert labels == {"on_circle"}
    assert out["config"]["command"] == "analyze"
    assert out["autocorrelation"]["coeffs"][2] == [2.0, 0.0]


def test_equiv_related(sig_shift, sig_flipped, capsys):
    assert main(["equiv", sig_shift, sig_flipped]) == 0
    out = read_json(capsys)
    assert out["verdict"]["related"] is True
    assert out["verdict"]["kappa"] == pytest.approx(1.0, abs=1e-9)
    assert out["agree"] is True


def test_equiv_unrelated(sig_shift, tmp_path, capsys):
    other = write_json(tmp_path, "other.json",
                       {"m": 1, "coeffs": [[0, 0], [1, 0], [0.5, 0]]})
    assert main(["equiv", sig_shift, other]) == 0
    out = read_json(capsys)
    assert out["verdict"]["related"] is False
    assert out["verdict"]["witness"] is not None
    assert out["agree"] is True


def test_equiv_high_degree_related_pair_agrees(tmp_path):
    # pair 12 of the battery (degree 56), which a sampled |f|/|g| check at
    # 1e-8 rejects although |f| = kappa |g| holds by construction
    f, g, kappa = equiv_battery()[12]
    paths = [
        write_json(tmp_path, name, {
            "m": (len(b) - 1) // 2,
            "coeffs": [[z.real, z.imag] for z in b.tolist()],
        })
        for name, b in (("f.json", f), ("g.json", g))
    ]
    blobs = []
    for run in range(2):
        out = tmp_path / ("report%d.json" % run)
        assert main(["equiv", *paths, "--json", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    report = json.loads(blobs[0])
    assert report["agree"] is True
    assert report["verdict"]["related"] is True and report["oracle"]["related"] is True
    assert report["oracle"]["kappa"] == pytest.approx(kappa, rel=1e-9)


def test_enumerate(sig_shift, capsys):
    assert main(["enumerate", sig_shift]) == 0
    out = read_json(capsys)
    cls = out["classes"]
    assert cls["exact_count"] == 2
    assert cls["bound"] == 8
    assert cls["within_bound"] is True
    assert cls["max_residual"] <= 1e-8 * 2.0


def test_factor(ac_shift, capsys):
    assert main(["factor", ac_shift]) == 0
    out = read_json(capsys)
    assert out["classes"]["exact_count"] == 2
    assert out["classes"]["m"] == 1


def test_factor_rejects_bad_lags(tmp_path, capsys):
    bad = write_json(
        tmp_path, "bad.json",
        {"m": 1, "coeffs": [[0, 0], [1, 0], [1, 0], [1, 0], [0, 0]]},
    )
    assert main(["factor", bad]) == 2
    err = capsys.readouterr().err
    assert "validation failure" in err


def test_malformed_json_is_operational_error(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["factor", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_builds_the_parser_once(sig_shift, capsys):
    _build_parser.cache_clear()
    assert main(["analyze", sig_shift]) == 0
    assert main(["analyze", sig_shift]) == 0
    assert _build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_gap_from_file(tmp_path, capsys):
    cfile = write_json(tmp_path, "cons.json", {
        "m": 1,
        "points": [
            {"coeffs": [[0, 0], [2, 0], [0, 0]], "probability": 0.5},
            {"coeffs": [[0, 0], [3, 0], [0, 0]], "probability": 0.5},
        ],
    })
    assert main(["gap", cfile]) == 0
    out = read_json(capsys)
    assert out["gap"]["per_dim_gap"] == pytest.approx(0.0, abs=1e-12)
    assert out["gap"]["pass"] is True


def test_gap_sweep_csv(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert main(["gap", "--sweep", "m=1..4", "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,i_xy,i_xs,per_dim_gap,bound"
    assert lines[1] == "1,2.584962500721156,1.2516291673878228,0.4444444444444444,1.0"
    assert len(lines) == 5
    assert lines[2].startswith("2,")


def test_gap_sweep_bad_range(capsys):
    assert main(["gap", "--sweep", "m=3..1"]) == 1
    assert main(["gap", "--sweep", "banana"]) == 1
    capsys.readouterr()


def test_gap_needs_input(capsys):
    assert main(["gap"]) == 1
    assert "constellation file or --sweep" in capsys.readouterr().err


def test_transform_is_not_a_command(ac_shift, capsys):
    # the readout-map round trip is retired: argparse refuses the name
    with pytest.raises(SystemExit) as exc:
        main(["transform", ac_shift, "--map", "sqrt"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'transform'" in captured.err


def test_json_output_deterministic(sig_shift, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["enumerate", sig_shift, "--json", str(a)]) == 0
    assert main(["enumerate", sig_shift, "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gap_sweep_csv_repeatable_and_no_workers_flag(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gap", "--sweep", "m=1..3", "--csv", str(a)]) == 0
    assert main(["gap", "--sweep", "m=1..3", "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["gap", "--sweep", "m=1..3", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_enumerate_csv_samples(sig_shift, tmp_path, capsys):
    csv_path = tmp_path / "classes.csv"
    assert main(["enumerate", sig_shift, "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "class,sample,t,re,im,intensity"
    # two classes, 64 samples each
    assert len(lines) == 1 + 2 * 64
    capsys.readouterr()


def test_enumerate_csv_samples_synthesize_each_class(tmp_path):
    # every cell against term-by-term synthesis at t_j = j T / 64, and one
    # intensity per sample across the classes, since they share a measurement
    coeffs = [[0.3, 0.1], [1.0, 0.0], [-0.2, 0.7], [0.4, -0.5], [0.9, 0.2]]
    sig = write_json(tmp_path, "sig.json", {"m": 2, "coeffs": coeffs, "period": 0.75})
    out = tmp_path / "classes.csv"
    assert main(["enumerate", sig, "--csv", str(out), "--json", os.devnull]) == 0
    cs = enumerate_classes(parse_signal(load_json(sig)))
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert len(rows) == 64 * cs.exact_count
    intensity = np.zeros((cs.exact_count, 64))
    for cls, j, t, re, im, level in rows:
        cls, j = int(cls), int(j)
        assert float(t) == pytest.approx(j * 0.75 / 64, rel=1e-15, abs=0)
        want = eval_series(cs.coeffs[cls], 2, j * 0.75 / 64, 0.75)
        assert abs(complex(float(re), float(im)) - want) <= 1e-12 * (1 + abs(want))
        assert float(level) == pytest.approx(abs(want) ** 2, rel=1e-11, abs=1e-12)
        intensity[cls, j] = float(level)
    assert np.abs(intensity - intensity[0]).max() <= 1e-9 * intensity.max()


def test_enumerate_csv_matches_row_by_row_writer(tmp_path):
    rng = np.random.default_rng(777)
    hard = 0  # cells whose intensity x * x would write differently from pow(x, 2)
    for m in range(1, 6):
        coeffs = rng.standard_normal((2 * m + 1, 2)).tolist()
        period = 0.75 if m % 2 else 1.0
        sig = write_json(tmp_path, "sig%d.json" % m,
                         {"m": m, "coeffs": coeffs, "period": period})
        out = tmp_path / ("classes%d.csv" % m)
        report = str(tmp_path / ("classes%d.json" % m))
        assert main(["enumerate", sig, "--csv", str(out), "--json", report]) == 0
        cs = enumerate_classes(parse_signal(load_json(sig)))
        want = class_csv_text(cs.coeffs, m, period)
        assert out.read_bytes() == want.encode("utf-8")
        # every intensity is Python's abs(z) ** 2 of the sample the row writes
        for line in want.splitlines()[1:]:
            cells = line.split(",")
            h = abs(complex(float(cells[3]), float(cells[4])))
            assert cells[5] == repr(h**2)
            hard += h * h != h**2
    # the draws reach cells where squaring by x * x instead of libm's pow
    # changes the text: 54 of the 87,296 (19 of the 65,536 at m = 5) with glibc
    assert hard > 0


def _partial_block_signal():
    """Order 4 with the top two coefficients zero: a degree-6 lift and two
    origin shifts, so 3 * 2^6 = 192 classes, one full block and a half."""
    rng = np.random.default_rng(5150)
    coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    coeffs[-2:] = 0
    return 4, coeffs


def _shared_intensity_signal():
    """Order 1 with b(z) = z^-1 (z - 2)(z + 3): every class row is real and
    integer, so at t = 0 each class's sample is an exact integer of modulus
    |f(1)| = 4, and every class writes the same intensity there."""
    return 1, np.array([-6.0, 1.0, 1.0])


@pytest.mark.parametrize("signal", (_partial_block_signal, _shared_intensity_signal),
                         ids=("partial-block", "shared-intensity"))
def test_class_csv_matches_row_by_row_writer_edge_cases(signal, tmp_path):
    m, coeffs = signal()
    sig = write_json(tmp_path, "sig.json", signal_dict(TrigPoly(m=m, coeffs=coeffs)))
    out = tmp_path / "classes.csv"
    assert main(["enumerate", sig, "--csv", str(out), "--json", os.devnull]) == 0
    cs = enumerate_classes(parse_signal(load_json(sig)))
    want = class_csv_text(cs.coeffs, m, 1.0)
    assert out.read_bytes() == want.encode("utf-8")
    if signal is _partial_block_signal:
        assert cs.exact_count == 192
        assert cs.exact_count % serialize._CSV_CLASSES
    else:
        rows = [line.split(",") for line in want.splitlines()[1:]]
        assert cs.exact_count == 4
        assert {row[5] for row in rows if row[1] == "0"} == {"16.0"}


def test_class_and_gap_commands_build_no_object_per_class(tmp_path, monkeypatch, capsys):
    built = []
    original = TrigPoly.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(TrigPoly, "__post_init__", counted)
    counts = {}
    rng = np.random.default_rng(4242)
    for m in range(1, 5):
        p = TrigPoly(m=m, coeffs=rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1))
        sig = write_json(tmp_path, "sig%d.json" % m, signal_dict(p))
        meas = write_json(tmp_path, "meas%d.json" % m, signal_dict(autocorrelation(p)))
        for name, argv in (
            ("enumerate", ["enumerate", sig, "--csv", str(tmp_path / "c.csv")]),
            ("factor", ["factor", meas]),
            ("gap", ["gap", "--sweep", "m=%d..%d" % (m, m)]),
        ):
            built.clear()
            assert main(argv) == 0
            counts.setdefault(name, []).append(len(built))
    capsys.readouterr()
    # classes per order: 4, 16, 64, 256 (gap: two more points each)
    assert counts == {"enumerate": [1] * 4, "factor": [0] * 4, "gap": [2] * 4}
    built.clear()
    assert main(["gap", "--sweep", "m=1..4"]) == 0
    assert len(built) == 8


# each command's arguments, and the root-finding settings no command takes
_COMMAND_ARGS = {
    "analyze": ["{sig}"],
    "equiv": ["{sig}", "{sig}"],
    "enumerate": ["{sig}"],
    "factor": ["{ac}"],
    "gap": ["--sweep", "m=1..1"],
}
_ROOT_FLAGS = (("--seed", "7"), ("--tol-root", "1e-9"), ("--tol-circle", "1e-9"))


@pytest.mark.parametrize(
    "argv, flag",
    (
        (["analyze", "{sig}", "--csv", "{tmp}/a.csv"], "--csv"),
        (["analyze", "{sig}", "--round", "3"], "--round"),
        (["equiv", "{sig}", "{sig}", "--round", "3"], "--round"),
        (["enumerate", "{sig}", "--round", "3"], "--round"),
        (["factor", "{ac}", "--round", "3"], "--round"),
        (["gap", "--sweep", "m=1..1", "--round", "3"], "--round"),
        (["equiv", "{sig}", "{sig}", "--csv", "{tmp}/a.csv"], "--csv"),
        (["analyze", "{sig}", "--sweep", "m=1..1"], "--sweep"),
        (["factor", "{ac}", "--sweep", "m=1..1"], "--sweep"),
        *(([name, *args, flag, value], flag)
          for name, args in _COMMAND_ARGS.items() for flag, value in _ROOT_FLAGS),
    ),
    ids=("analyze-csv", "analyze-round", "equiv-round", "enumerate-round", "factor-round",
         "gap-round", "equiv-csv", "analyze-sweep", "factor-sweep",
         *("%s-%s" % (name, flag[2:]) for name in _COMMAND_ARGS for flag, _ in _ROOT_FLAGS)),
)
def test_subcommand_rejects_flags_it_does_not_read(argv, flag, sig_shift, ac_shift,
                                                   tmp_path, capsys):
    argv = [a.format(sig=sig_shift, ac=ac_shift, tmp=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def test_gap_rejects_sweep_with_a_file(sig_shift, capsys):
    assert main(["gap", "--sweep", "m=1..1", sig_shift]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not both" in captured.err


def test_gap_rejects_csv_without_sweep(tmp_path, capsys):
    cfile = write_json(tmp_path, "cons.json", {
        "m": 1,
        "points": [
            {"coeffs": [[0, 0], [2, 0], [0, 0]], "probability": 0.5},
            {"coeffs": [[0, 0], [3, 0], [0, 0]], "probability": 0.5},
        ],
    })
    assert main(["gap", cfile, "--csv", str(tmp_path / "g.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--csv only with --sweep" in captured.err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize(
    "argv, flag",
    (
        (["analyze", "{sig}", "--json", ""], "--json"),
        (["equiv", "{sig}", "{sig}", "--json", ""], "--json"),
        (["enumerate", "{sig}", "--json", ""], "--json"),
        (["enumerate", "{sig}", "--json", "{tmp}/r.json", "--csv", ""], "--csv"),
        (["enumerate", "{sig}", "--csv", "{tmp}/c.csv", "--json", ""], "--json"),
        (["factor", "{ac}", "--json", ""], "--json"),
        (["factor", "{ac}", "--json", "{tmp}/r.json", "--csv", ""], "--csv"),
        (["gap", "{sig}", "--json", ""], "--json"),
        (["gap", "--sweep", "m=1..1", "--json", ""], "--json"),
        (["gap", "--sweep", "m=1..1", "--json", "{tmp}/r.json", "--csv", ""], "--csv"),
    ),
    ids=("analyze-json", "equiv-json", "enumerate-json", "enumerate-csv",
         "enumerate-json-beside-csv", "factor-json", "factor-csv", "gap-json",
         "gap-sweep-json", "gap-sweep-csv"),
)
def test_an_empty_output_path_is_refused(argv, flag, sig_shift, ac_shift, tmp_path, capsys):
    # an empty path names no file: it neither means stdout nor skips the output
    argv = [a.format(sig=sig_shift, ac=ac_shift, tmp=tmp_path) for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: %s needs a file path, not an empty string\n"
                                   % flag)
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "c.csv").exists()


def test_wrong_arity(sig_shift, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equiv", sig_shift])
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()


_CONFIG = {"seed": 12345, "tol_circle": 1e-9, "tol_root": 1e-8}


@pytest.mark.parametrize(
    "argv, extra",
    (
        (["analyze", "{sig}"], {}),
        (["equiv", "{sig}", "{sig}"], {}),
        (["enumerate", "{sig}"], {}),
        (["factor", "{ac}"], {}),
        (["gap", "{cons}"], {}),
        (["gap", "--sweep", "m=1..2"], {"sweep": "m=1..2"}),
    ),
    ids=("analyze", "equiv", "enumerate", "factor", "gap-file", "gap-sweep"),
)
def test_report_config_block(argv, extra, sig_shift, ac_shift, tmp_path):
    cons = write_json(tmp_path, "cons.json", {
        "m": 1,
        "points": [
            {"coeffs": [[0, 0], [2, 0], [0, 0]], "probability": 0.5},
            {"coeffs": [[0, 0], [3, 0], [0, 0]], "probability": 0.5},
        ],
    })
    argv = [a.format(sig=sig_shift, ac=ac_shift, cons=cons) for a in argv]
    report = tmp_path / "report.json"
    assert main(argv + ["--json", str(report)]) == 0
    config = json.loads(report.read_text(encoding="utf-8"))["config"]
    assert config == {"command": argv[0], **_CONFIG, **extra}


@pytest.mark.parametrize(
    "argv",
    (
        ["analyze", "{sig}", "--json", "{missing}/r.json"],
        ["analyze", "{sig}", "--json", "{tmp}"],
        ["enumerate", "{sig}", "--csv", "{missing}/c.csv"],
        ["enumerate", "{sig}", "--csv", "{tmp}"],
        ["gap", "--sweep", "m=1..1", "--json", "{missing}/g.json"],
        ["gap", "--sweep", "m=1..1", "--csv", "{tmp}"],
    ),
    ids=("json-missing-dir", "json-onto-dir", "csv-missing-dir", "csv-onto-dir",
         "gap-json-missing-dir", "gap-csv-onto-dir"),
)
def test_unwritable_output_is_operational_error(argv, sig_shift, tmp_path, capsys):
    missing = tmp_path / "missing"
    argv = [a.format(sig=sig_shift, missing=missing, tmp=tmp_path) for a in argv]
    path = argv[-1]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write %s: " % path)
    assert err.count("\n") == 1
    assert not missing.exists()


_ENUMERATE_TO_FILE = ["enumerate", "{sig}", "--json", "{other}", "--csv", "{missing}/c.csv"]
_SWEEP_TO_FILE = ["gap", "--sweep", "m=1..2", "--csv", "{other}", "--json", "{missing}/g.json"]


@pytest.mark.parametrize(
    "argv, existing",
    (
        (["enumerate", "{sig}", "--csv", "{missing}/c.csv"], False),
        (_ENUMERATE_TO_FILE, False),
        (_ENUMERATE_TO_FILE, True),
        (["gap", "--sweep", "m=1..2", "--json", "{missing}/g.json"], False),
        (_SWEEP_TO_FILE, False),
        (_SWEEP_TO_FILE, True),
    ),
    ids=("enumerate-stdout", "enumerate-new-file", "enumerate-existing-file",
         "gap-sweep-stdout", "gap-sweep-new-file", "gap-sweep-existing-file"),
)
def test_unwritable_output_leaves_no_other_output(argv, existing, sig_shift, tmp_path,
                                                  capsys):
    missing, other = tmp_path / "missing", tmp_path / "other.txt"
    if existing:
        other.write_text("kept\n", encoding="utf-8")
    argv = [a.format(sig=sig_shift, missing=missing, other=other) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write %s: " % argv[-1])
    assert captured.err.count("\n") == 1
    if existing:
        assert other.read_text(encoding="utf-8") == "kept\n"
    else:
        assert not other.exists()
    assert not missing.exists()


@pytest.mark.parametrize(
    "argv",
    (
        ["enumerate", "{sig}", "--json", "{out}", "--csv", "{out}"],
        ["enumerate", "{sig}", "--json", "{out}", "--csv", "{link}"],
        ["gap", "--sweep", "m=1..2", "--json", "{out}", "--csv", "{out}"],
    ),
    ids=("enumerate-same-path", "enumerate-symlink", "gap-sweep-same-path"),
)
@pytest.mark.parametrize("existing", (False, True), ids=("new-file", "existing-file"))
def test_two_outputs_to_one_file_are_refused(argv, existing, sig_shift, tmp_path, capsys):
    out, link = tmp_path / "out.txt", tmp_path / "link.txt"
    if existing:
        out.write_text("kept\n", encoding="utf-8")
    if "{link}" in argv:
        link.symlink_to(out)
    argv = [a.format(sig=sig_shift, out=out, link=link) for a in argv]
    # the path opened second is refused, and it is the last argument
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write %s: " % argv[-1])
    assert captured.err.count("\n") == 1
    if existing:
        assert out.read_text(encoding="utf-8") == "kept\n"
    else:
        assert not out.exists()


def _run_to_file(argv, stdout_path):
    """Run the CLI in a fresh interpreter with stdout redirected to a file, as `> path` does."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open(stdout_path, "w", encoding="utf-8") as stdout:
        return subprocess.run([sys.executable, "-m", "sldlab", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)


@pytest.mark.parametrize(
    "argv",
    (
        ["enumerate", "{sig}", "--csv", "{out}"],
        ["gap", "--sweep", "m=1..2", "--json", "{out}"],
    ),
    ids=("enumerate-report-to-stdout", "gap-sweep-csv-to-stdout"),
)
def test_stdout_and_an_output_path_to_one_file_are_refused(argv, sig_shift, tmp_path):
    out = tmp_path / "out.txt"
    argv = [a.format(sig=sig_shift, out=out) for a in argv]
    done = _run_to_file(argv, out)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "error: cannot write %s: it is the same file as another output" % out]
    assert out.read_text(encoding="utf-8") == ""


def test_stdout_to_a_file_beside_an_output_path(sig_shift, tmp_path):
    report, csv = tmp_path / "report.json", tmp_path / "classes.csv"
    done = _run_to_file(["enumerate", sig_shift, "--csv", str(csv)], report)
    assert (done.returncode, done.stderr) == (0, "")
    assert main(["enumerate", sig_shift, "--json", str(tmp_path / "want.json")]) == 0
    assert report.read_bytes() == (tmp_path / "want.json").read_bytes()
    assert csv.read_text(encoding="utf-8").count("\n") > 1


def test_output_replaces_a_longer_file_or_goes_to_a_device(sig_shift, tmp_path, capsys):
    report, csv = tmp_path / "report.json", tmp_path / "classes.csv"
    assert main(["enumerate", sig_shift, "--json", str(report), "--csv", str(csv)]) == 0
    want = report.read_bytes(), csv.read_bytes()
    for path in (report, csv):
        path.write_bytes(b"x" * 100_000)
    assert main(["enumerate", sig_shift, "--json", str(report), "--csv", str(csv)]) == 0
    assert (report.read_bytes(), csv.read_bytes()) == want
    assert main(["enumerate", sig_shift, "--json", os.devnull, "--csv", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def _chunks(*texts, fail=False):
    yield from texts
    if fail:
        raise RuntimeError("no more chunks")


def test_write_leaves_no_old_tail_when_a_chunk_fails(tmp_path):
    done, cut = tmp_path / "done.txt", tmp_path / "cut.txt"
    for path in (done, cut):
        path.write_bytes(b"x" * 100_000)
    with pytest.raises(RuntimeError, match="no more chunks"):
        cli._write((str(done), _chunks("whole\n")), (str(cut), _chunks("kept\n", fail=True)))
    assert (done.read_bytes(), cut.read_bytes()) == (b"whole\n", b"kept\n")


def test_write_to_a_device_a_pipe_and_stdout(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    cli._write((os.devnull, _chunks("gone\n")), (str(fifo), _chunks("piped\n", "too\n")),
               (None, _chunks("shown\n")))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [b"piped\ntoo\n"]
    assert capsys.readouterr() == ("shown\n", "")


@pytest.mark.parametrize("command", ("factor",))
@pytest.mark.parametrize(
    "coeffs, message",
    (
        ([[0, 0], [0, 1], [2, 0], [0, 1], [0, 0]], "sequence is not Hermitian-symmetric"),
        ([[0, 0], [0, 0], [-1, 0], [0, 0], [0, 0]], "c_0 must be nonnegative"),
    ),
    ids=("not-hermitian", "negative-c0"),
)
def test_invalid_lags_are_a_validation_failure(command, coeffs, message, tmp_path, capsys):
    lags = write_json(tmp_path, "lags.json", {"m": 1, "coeffs": coeffs})
    assert main([command, lags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation failure: %s\n" % message


def test_equiv_disagreement_is_a_validation_failure(sig_shift, sig_flipped, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(cli, "numeric_magnitude_equiv",
                        lambda f, g: EquivalenceVerdict(related=False, witness="forced"))
    assert main(["equiv", sig_shift, sig_flipped]) == 2
    captured = capsys.readouterr()
    assert captured.err == "validation failure: structural and lag-oracle verdicts disagree\n"
    report = json.loads(captured.out)
    assert report["agree"] is False
    assert report["oracle"] == {"related": False, "kappa": None, "phase": None,
                                "witness": "forced"}


@pytest.mark.parametrize(
    "argv, code",
    (
        (["analyze", "{sig}", "--json", ""], 1),
        (["factor", "{tmp}/missing.json"], 1),
        (["factor", "{bad}"], 2),
    ),
    ids=("empty-json", "missing-file", "bad-lags"),
)
def test_failure_prints_one_stderr_line(argv, code, sig_shift, tmp_path):
    # in a fresh interpreter: under pytest the root logger already has
    # handlers, so an in-process run cannot see a logging layer's extra line
    bad = write_json(tmp_path, "bad.json",
                     {"m": 1, "coeffs": [[0, 0], [1, 0], [1, 0], [1, 0], [0, 0]]})
    argv = [a.format(sig=sig_shift, tmp=tmp_path, bad=bad) for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "sldlab", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == code
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: " if code == 1 else "validation failure: ")
