"""End-to-end acceptance battery.

Eight independent checks, one test each, so `pytest -v` prints one
pass/fail line per criterion, plus a check that the declared console
script is the `python -m sldlab` entry point that criterion 8 runs.
Batteries use their own seeded generators rather than hypothesis: the
draw sequence is part of the contract here, and the runtime limits are
asserted alongside the numerics.
"""

import importlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sldlab
from sldlab import (
    CoeffPoly,
    TrigPoly,
    autocorrelation,
    bundled_constellation,
    certify_bound,
    enumerate_classes,
    factor_sld,
    find_roots,
    gap_experiment,
    lift,
    numeric_magnitude_equiv,
    single_class_constellation,
    struct_magnitude_equiv,
)

from oracles import lattice_ambiguity, same_class_sets

INT_LATTICE = [complex(a, b) for a in range(-2, 3) for b in (-1, 0, 1)]


def _poly(coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    return CoeffPoly(coeffs=coeffs, n=len(coeffs) - 1)


def _draw_roots(rng, count):
    """Roots kept off the circle and clear of each other's reflections."""
    roots = []
    while len(roots) < count:
        radius = rng.uniform(0.25, 0.85) if rng.random() < 0.5 else rng.uniform(1.2, 3.0)
        z = radius * np.exp(2j * np.pi * rng.random())
        if all(
            abs(z - w) > 0.05 and abs(z - 1 / np.conj(w)) > 0.05 for w in roots
        ):
            roots.append(z)
    return roots


def _coeffs_from_roots(roots, lead):
    out = np.array([complex(lead)])
    for r in roots:
        out = np.convolve(out, np.array([-complex(r), 1.0 + 0j]))
    return out


def test_criterion_1_structural_matches_sampled_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for trial in range(250):
        count = int(rng.integers(1, 11))
        roots = _draw_roots(rng, count)
        lead = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
        f = _poly(_coeffs_from_roots(roots, lead))

        # a related partner: reflect a random subset of roots across the
        # circle, absorb each |r| into the lead, then rescale by c
        mask = rng.random(count) < 0.5
        flipped, scale = [], lead
        for j, r in enumerate(roots):
            if mask[j]:
                flipped.append(1 / np.conj(r))
                scale *= abs(r)
            else:
                flipped.append(r)
        c = rng.uniform(0.5, 2.0)
        g = _poly(_coeffs_from_roots(flipped, scale * c * np.exp(2j * np.pi * rng.random())))

        sv = struct_magnitude_equiv(f, g)
        nv = numeric_magnitude_equiv(f, g)
        assert sv.related and nv.related
        assert abs(sv.kappa - nv.kappa) <= 1e-6 * nv.kappa
        assert abs(sv.kappa - 1 / c) <= 1e-6 / c

        # an unrelated partner: an independent draw
        other = _poly(
            _coeffs_from_roots(
                _draw_roots(rng, int(rng.integers(1, 11))),
                rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random()),
            )
        )
        sv = struct_magnitude_equiv(f, other)
        nv = numeric_magnitude_equiv(f, other)
        assert sv.related == nv.related == False  # noqa: E712
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "500 equivalence instances took %.2fs" % elapsed


def test_criterion_2_class_count_never_beats_the_bound():
    rng = np.random.default_rng(2002)
    start = time.perf_counter()
    generic_hits = 0
    for trial in range(200):
        m = int(rng.integers(1, 4))
        coeffs = rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1)
        p = TrigPoly(m=m, coeffs=coeffs)
        cs = enumerate_classes(p)
        assert cs.bound == 2 ** (2 * m + 1)
        assert cs.exact_count <= cs.bound

        r = find_roots(lift(p))
        locs = r.locations.tolist()
        generic = (
            r.origin_mult == 0
            and r.degree == 2 * m
            and len(locs) == 2 * m
            and all(k == 1 for k in r.multiplicities.tolist())
            and all(label != "on_circle" for label in r.labels.tolist())
            and all(
                abs(a - 1 / np.conj(b)) > 1e-3
                for a in locs
                for b in locs
            )
            and all(
                abs(a - b) > 1e-3 for i, a in enumerate(locs) for b in locs[:i]
            )
        )
        if generic:
            generic_hits += 1
            assert cs.exact_count == 2 ** (2 * m)
    elapsed = time.perf_counter() - start
    assert generic_hits >= 150, "only %d generic draws" % generic_hits
    assert elapsed < 30.0, "200 enumerations took %.2fs" % elapsed


def test_criterion_3_factorization_inverts_enumeration():
    rng = np.random.default_rng(3003)
    for trial in range(100):
        m = int(rng.integers(1, 4))
        coeffs = rng.normal(size=2 * m + 1) + 1j * rng.normal(size=2 * m + 1)
        p = TrigPoly(m=m, coeffs=coeffs)
        forward = enumerate_classes(p)
        recovered = factor_sld(autocorrelation(p))
        assert recovered.exact_count == forward.exact_count
        assert same_class_sets(
            forward.coeffs,
            recovered.coeffs,
            tol=1e-5,
        )
        report = certify_bound(recovered)
        assert report.passed
        assert report.max_residual <= 1e-8 * recovered.autocorr.c0


def test_criterion_4_fixtures_match_brute_force():
    shift = TrigPoly(m=1, coeffs=[0, 1, 1])
    cs = enumerate_classes(shift)
    assert cs.exact_count == 2
    hits = lattice_ambiguity(autocorrelation(shift).coeffs, INT_LATTICE, 3)
    assert len(hits) == 2
    assert same_class_sets(hits, cs.coeffs)

    tone = TrigPoly(m=1, coeffs=[0, 2, 0])  # flat intensity, only the
    flat = autocorrelation(tone)            # center lag survives
    cs = factor_sld(flat)
    assert cs.exact_count == 3
    hits = lattice_ambiguity(flat.coeffs, INT_LATTICE, 3)
    assert len(hits) == 3
    assert same_class_sets(hits, cs.coeffs)


def test_criterion_5_bundled_gap_stays_under_bound():
    for m in (1, 2, 3, 4):
        r = gap_experiment(bundled_constellation(m))
        assert r.per_dim_gap <= 1 + np.log2(m) / (2 * m + 1) + 1e-9
        assert r.chain_residual <= 1e-9
        assert r.passed


def test_criterion_6_single_class_family_approaches_one_bit():
    gaps = []
    for m in (1, 2, 3, 4):
        q = 2 * m
        r = gap_experiment(single_class_constellation(m, q))
        assert r.i_xs == pytest.approx(0.0, abs=1e-12)
        assert r.per_dim_gap == pytest.approx(q / (2 * m + 1), abs=1e-12)
        assert r.per_dim_gap <= 1 + np.log2(m) / (2 * m + 1) + 1e-9
        gaps.append(r.per_dim_gap)
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] == pytest.approx(8 / 9, abs=1e-12)
    assert 1.0 - gaps[-1] < 0.12


def test_criterion_7_reflected_roots_give_a_unimodular_ratio():
    # f / (kappa g) is unimodular on the circle when g reflects some roots
    # of f to 1/conj(a): each reflection scales |g| by 1/|a| there, so
    # kappa = prod |a| / |scale|, and both deciders must return it
    z = np.exp(2j * np.pi * np.arange(256) / 256)
    rng = np.random.default_rng(7007)
    worst = {"flat": 0.0, "struct": 0.0, "oracle": 0.0}
    for trial in range(100):
        k = int(rng.integers(1, 9))
        inside = rng.uniform(0.05, 0.9, k) * np.exp(2j * np.pi * rng.random(k))
        flips = rng.random(k) < 0.5
        scale = complex(rng.standard_normal(), rng.standard_normal())
        shift = [0.0] * int(rng.integers(0, 3))
        f = np.poly(list(inside) + shift)
        g = scale * np.poly(list(np.where(flips, 1 / np.conj(inside), inside)) + shift)
        kappa = np.prod(np.abs(inside[flips])) / abs(scale)
        ratio = np.abs(np.polyval(f, z) / np.polyval(g, z))
        worst["flat"] = max(worst["flat"], np.abs(ratio / kappa - 1.0).max())
        for name, decide in (("struct", struct_magnitude_equiv),
                             ("oracle", numeric_magnitude_equiv)):
            verdict = decide(_poly(f[::-1]), _poly(g[::-1]))
            assert verdict.related, (trial, name, verdict.witness)
            worst[name] = max(worst[name], abs(verdict.kappa / kappa - 1.0))
    assert max(worst.values()) <= 1e-12, worst


def _launchers():
    """Every way to start the CLI here: `python -m sldlab`, always, and the
    installed console script when one is on PATH."""
    src = str(Path(sldlab.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = src + os.pathsep + inherited if inherited else src
    env = dict(os.environ, PYTHONPATH=path)
    launchers = [([sys.executable, "-m", "sldlab"], env)]
    exe = shutil.which("sldlab")
    if exe:
        launchers.append(([exe], None))
    return launchers


def test_criterion_8_cli_runs_are_byte_identical(tmp_path):
    sig = tmp_path / "sig.json"
    sig.write_text(
        '{"m": 1, "coeffs": [[6, 0], [-5, 0], [1, 0]]}', encoding="utf-8"
    )
    batteries = (
        ["enumerate", str(sig)],
        ["analyze", str(sig)],
        ["gap", "--sweep", "m=1..3"],
    )
    launchers = _launchers()
    for args in batteries:
        outputs = []
        for launcher, env in launchers:
            cmd = launcher + args
            first = subprocess.run(cmd, capture_output=True, timeout=120, env=env)
            second = subprocess.run(cmd, capture_output=True, timeout=120, env=env)
            assert first.returncode == 0 and second.returncode == 0
            assert first.stdout == second.stdout
            assert first.stdout  # the report actually went somewhere
            outputs.append(first.stdout)
        assert all(out == outputs[0] for out in outputs)


def test_console_script_is_the_module_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["sldlab"] == "sldlab.cli:main"
    module, _, attr = scripts["sldlab"].partition(":")
    target = getattr(importlib.import_module(module), attr)
    assert target is importlib.import_module("sldlab.__main__").main
