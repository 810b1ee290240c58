"""Smoke runs of the scripts under scripts/ on tiny inputs."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, line",
    (
        ("make_examples.py", ["--out-dir", "{tmp}"], "wrote {tmp}/two_orbit.json"),
        ("ambiguity_census.py", ["--m", "2", "--trials", "5"], "draws over the ceiling: 0"),
        ("gap_sweep.py", ["--max-m", "2"], "worst chain residual"),
    ),
    ids=("make_examples", "ambiguity_census", "gap_sweep"),
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
