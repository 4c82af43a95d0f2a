"""Self-check of the benchmark's correctness gate.

    python3 -m pytest bench/test_gate.py
"""

from __future__ import annotations

import json

import cases
import run


def _grassmann() -> cases.Invocation:
    (inv,) = [i for i in cases.workload("queries-top-cells", 0) if i.args[0] == "grassmann"]
    return inv


def test_corrupted_stdout_and_wrong_exit_code_count_as_failed():
    inv = _grassmann()
    good = run.spawn(run.end_to_end_argv(inv))
    tally = cases.Tally()
    tally.record("as printed", cases.gate(inv, good.code, good.stdout))
    corrupted = good.stdout.replace(b'"smooth": false', b'"smooth": true ')
    assert corrupted != good.stdout
    tally.record("corrupted stdout", cases.gate(inv, good.code, corrupted))
    tally.record("wrong exit code", cases.gate(inv, 1, good.stdout))
    assert (tally.attempted, tally.failed) == (3, 2)
    assert [r.split(":")[0] for r in tally.reasons] == ["corrupted stdout", "wrong exit code"]


def test_headline_check_catches_what_the_digest_does_not_pin():
    # the E7 top cell has no pinned digest, only its mathematically expected counts
    nash = cases.E7_TOP_PROBE[0]
    assert nash.sha256 is None
    fibers = [{"fiber_words": [[i]], "smooth": True} for i in range(56)]
    ok = {"fixed_point_count": 56, "fibers": fibers}
    assert cases.gate(nash, 0, json.dumps(ok).encode()) is None
    merged = {"fixed_point_count": 56, "fibers": fibers[:-2] + [{"fiber_words": [[1], [2]]}]}
    assert cases.gate(nash, 0, json.dumps(merged).encode()) is not None


def test_pattern_containment():
    assert cases.contains_pattern((6, 5, 2, 3, 4, 1), cases.PATTERN)
    assert not cases.contains_pattern((1, 2, 3, 4, 5, 6), cases.PATTERN)


def test_every_workload_fits_one_child_at_a_time():
    for name in cases.WORKLOADS:
        assert all(inv.jobs == 1 for inv in cases.workload(name, 0))
