"""Scripts under scripts/: a small run of each, in a child process."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nashblowup
from nashblowup import grassmann
from nashblowup.cli import VERIFY_LIMITS

CENSUS = Path(__file__).resolve().parents[1] / "scripts" / "smoothness_census.py"


def _census(*argv):
    env = dict(os.environ)
    src = str(Path(nashblowup.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(CENSUS), *argv], capture_output=True, text=True, env=env
    )


def test_smoothness_census_small():
    proc = _census("--max-n", "4")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[1:]}
    assert len(rows) == 6  # Gr(k, n) for 1 <= k < n <= 4
    # cells, singular, resolved, not yet: X_w of Gr(2,4) singular at one point
    assert rows["Gr(2,4)"] == ["6", "1", "1", "0"]


@pytest.mark.parametrize("max_n", [1, VERIFY_LIMITS["--max-n-fibers"] + 1])
def test_smoothness_census_rejects_range(max_n):
    proc = _census("--max-n", str(max_n))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_smoothness_census_check_survives_optimisation(monkeypatch, capsys):
    # the smooth-variety check is an explicit exit, not an assert
    spec = importlib.util.spec_from_file_location("smoothness_census", CENSUS)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    monkeypatch.setattr(grassmann, "nash_blowup_smooth", lambda perm, k: False)
    with pytest.raises(SystemExit) as exc:
        census.census(3, 1)
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: smooth ")
