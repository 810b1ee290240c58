"""Smoke runs of the scripts under scripts/ on tiny inputs."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sldlab import enumerate_classes

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, line",
    (
        ("make_examples.py", ["--out-dir", "{tmp}"], "wrote {tmp}/two_orbit.json"),
        ("ambiguity_census.py", ["--m", "2", "--trials", "5"], "draws over the ceiling: 0"),
        # roots squeezed toward the circle: the script reads a root multiset
        ("ambiguity_census.py", ["--m", "2", "--trials", "5", "--near-circle", "0.5"],
         "draws over the ceiling: 0"),
        ("gap_sweep.py", ["--max-m", "2"], "worst chain residual"),
    ),
    ids=("make_examples", "ambiguity_census", "ambiguity_census_near_circle", "gap_sweep"),
)
def test_script_runs(script, args, line, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [a.format(tmp=tmp_path) for a in args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert any(out.startswith(line.format(tmp=tmp_path)) for out in lines), done.stdout


def test_ambiguity_census_prints_the_worst_relative_residual(capsys):
    spec = importlib.util.spec_from_file_location(
        "ambiguity_census", ROOT / "scripts" / "ambiguity_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    assert census.main(["--m", "2", "--trials", "5", "--seed", "12345"]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("worst relative residual ")]
    # ClassSet.residuals are already relative to c0
    rng = np.random.default_rng(12345)
    worst = max(max(enumerate_classes(census.draw_signal(rng, 2, 0.0)).residuals)
                for _ in range(5))
    assert printed == ["worst relative residual %.3g" % worst]
