"""The benchmark's route script still matches the package it traces.

``bench/route.py --trace`` wraps every name in its ``TRACED`` table with
``setattr`` on the defining module, so a function renamed or deleted in the
package breaks ``bench/run.py --trace 1`` without failing any other test.
Each benchmark child also passes ``max_length`` to ``interval_min_reps`` and
reads ``weyl.bruhat_leq.cache_info()``; the child test below keeps both in
the package until the benchmark stops using them.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROUTE = Path(__file__).resolve().parent.parent / "bench" / "route.py"


@pytest.fixture(scope="module")
def route():
    spec = importlib.util.spec_from_file_location("bench_route", ROUTE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_callables(route):
    missing = [
        f"{module.__name__}.{name}"
        for module, names in route.TRACED.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert not missing


def test_cominuscule_route_runs(route):
    # the library calls and report fields the E6 workload reads, on A3
    payload = route.cominuscule_sweep("A", 3)
    assert payload["type"] == "A3"
    assert len(payload["data"]) == 4 + 6 + 4
    for row in payload["data"]:
        assert row["theorem2_ok"] and row["singular_agree"]
        assert row["fixed_points"] == row["states"]


def test_child_prints_payload_and_counters():
    src = str(ROUTE.parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROUTE), "cominuscule", "--type", "A", "--rank", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["type"] == "A3"
    meta = json.loads(proc.stderr.strip().splitlines()[-1])
    assert isinstance(meta, dict)
    assert {"bruhat_hits", "bruhat_misses"} <= meta.keys()
