"""Workload case lists, pinned outputs and the correctness gate.

Every invocation carries the exit code and the SHA-256 of stdout it must
produce (JSON output is byte-identical across refactors), plus a headline
check that re-derives the counts from the parsed JSON.  The digests were
taken from the program as it stands; the headline checks state the
mathematics independently of them (for example that every S_6 mismatch
contains the pattern (5,2,3,4,1), and that Nash fixed points and
translation states agree).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

PATTERN = (5, 2, 3, 4, 1)

E6_TOP = "6,5,4,3,2,4,5,6,1,3,4,5,2,4,3,1"
A7_TOP = "4,5,6,7,3,4,5,6,2,3,4,5,1,2,3,4"
E7_TOP = "7,6,5,4,3,2,4,5,6,7,1,3,4,5,6,2,4,5,3,4,1,3,2,4,5,6,7"
# the three length-18 cells of E7/P7; the seed picks one, index 0 is the default
E7_CELLS = (
    "5,6,7,4,5,6,2,4,5,3,4,1,3,2,4,5,6,7",
    "6,7,3,4,5,6,2,4,5,3,4,1,3,2,4,5,6,7",
    "7,1,3,4,5,6,2,4,5,3,4,1,3,2,4,5,6,7",
)

# (Nash fixed points = translation states, stdout digest of `nash --format json`)
NASH_PINS = {
    E7_CELLS[0]: (620, "a7d770e26ca217cee6b7383617be12d4f0eaa6d6279c4bd1f0d673321b8d5225"),
    E7_CELLS[1]: (2664, "22eaf6bcd0c7cc0437ab7dd3c1bae19522708fa8b52b9feb98c3feab3fa06a98"),
    E7_CELLS[2]: (380, "123ecd159b23e2ab5a07daecafaee1fcdf9a9be1fff5e5b669679c19f1da9f0f"),
    E6_TOP: (27, "226b8fa8c30734785dc10dcc456e52fbbcc290876f5f44c0a65dc73932acf68e"),
    A7_TOP: (70, "ea34bf28a2a725a6ac7ff390dc77d6b917acff90ab78bdb0215a0f9f6b46b4d9"),
    E7_TOP: (56, None),
}
PETERSON_PINS = {
    E7_CELLS[0]: "9acdbeb3a23841bc05ad93c2fa9a37f282f763f1f7747337a4a567bdc719f75b",
    E6_TOP: "1183c17dac05cf9df2b2604365cf7cdb0b0cf36d7e7782228169c973a471e5da",
    A7_TOP: "d56f57d68ede34044de69aba9240ad2b687515d8f04b699ec1dbe727a308b178",
    E7_TOP: None,
}


@dataclass(frozen=True)
class Invocation:
    """One fresh-process call: nashblowup arguments and what it must print."""

    args: tuple[str, ...]
    exit_code: int
    sha256: str | None  # None where the right output is known only by its counts
    check: Callable[[object], str | None]
    cli: bool = True  # False: arguments of bench/route.py, not of the CLI

    @property
    def jobs(self) -> int:
        a = self.args
        return int(a[a.index("--jobs") + 1]) if "--jobs" in a else 1


def contains_pattern(w: tuple[int, ...], pat: tuple[int, ...]) -> bool:
    order = sorted(range(len(pat)), key=lambda i: pat[i])
    for sub in combinations(w, len(pat)):
        if sorted(range(len(pat)), key=lambda i: sub[i]) == order:
            return True
    return False


def _check_verify(out) -> str | None:
    got = [(o["label"], o["checked"], o["ok"]) for o in out]
    want = [
        ("translate bijection", 160, True),
        ("singular locus agreement", 160, True),
        ("coessential closed form", 466, True),
        ("fiber product counts", 240, True),
    ]
    return None if got == want else f"verify outcomes {got}"


def _check_s6(out) -> str | None:
    if (out["checked"], len(out["failures"])) != (513, 20):
        return f"S_6: checked {out['checked']}, {len(out['failures'])} mismatches"
    lacking = [f["w"] for f in out["failures"] if not contains_pattern(tuple(f["w"]), PATTERN)]
    return f"mismatches without {PATTERN}: {lacking}" if lacking else None


def _check_e6(out) -> str | None:
    rows = out["data"]
    nodes = sorted(r["node"] for r in rows)
    if nodes != [1] * 27 + [6] * 27:
        return f"E6 data per node: {nodes}"
    bad = [
        r["w"]
        for r in rows
        if not (r["theorem2_ok"] and r["singular_agree"] and r["fixed_points"] == r["states"])
    ]
    return f"E6 data failing: {bad}" if bad else None


def _check_nash(word: str, singletons: bool) -> Callable:
    fixed = NASH_PINS[word][0]

    def check(out) -> str | None:
        sizes = [len(f["fiber_words"]) for f in out["fibers"]]
        if out["fixed_point_count"] != fixed or sum(sizes) != fixed:
            return f"fixed points {out['fixed_point_count']}, fibers sum {sum(sizes)}, want {fixed}"
        if singletons and set(sizes) != {1}:
            return "a fiber of the smooth top cell is not a singleton"
        return None

    return check


def _check_peterson(word: str) -> Callable:
    states = NASH_PINS[word][0]

    def check(out) -> str | None:
        got = (len(out["nodes"]), len(out["fixed_point_table"]))
        return None if got == (states, states) else f"states, fixed points {got}, want {states}"

    return check


def _check_grassmann(out) -> str | None:
    got = (out["partition"], out["smooth"])
    return None if got == ([4, 3, 1], False) else f"partition, smooth {got}"


def _check_conj_perm(out) -> str | None:
    bad = [(p["v"], p["product"], p["peterson_count"]) for p in out["points"] if not p["match"]]
    got = (len(out["points"]), out["verdict"], bad)
    want = (17, "fail", [([1, 2, 3, 4, 5], 16, 8)])
    return None if got == want else f"points, verdict, mismatches {got}"


def _datum(family: str, rank: int, node: int, word: str) -> tuple[str, ...]:
    return ("--type", family, "--rank", str(rank), "--node", str(node), "--word", word)


def _cell_pair(family: str, rank: int, node: int, word: str, nash_word: str | None = None):
    nash_word = nash_word or word
    top = word == E7_TOP
    return [
        Invocation(
            ("nash", *_datum(family, rank, node, nash_word), "--format", "json"),
            0,
            NASH_PINS[nash_word][1],
            _check_nash(nash_word, singletons=top),
        ),
        Invocation(
            ("peterson", *_datum(family, rank, node, word), "--format", "json"),
            0,
            PETERSON_PINS[word],
            _check_peterson(word),
        ),
    ]


def workload(name: str, seed: int) -> list[Invocation]:
    """The invocations of one workload iteration, generated from the seed."""
    if name == "verify-default":
        return [
            Invocation(
                ("verify", "--format", "json"),
                0,
                "f6cd9e7fcd1dcf69f8a1895ebd02cd592a808efa1928315aaa284a11dc661a61",
                _check_verify,
            )
        ]
    if name == "conjecture-s6":
        return [
            Invocation(
                ("conjecture", "--n", "6", "--format", "json"),
                1,
                "da69384b8c6076e3b4d23ae27fa3ec8f7fd512c218b64a004bdcac3b6a01fa1c",
                _check_s6,
            )
        ]
    if name == "cominuscule-e6":
        return [
            Invocation(
                ("cominuscule", "--type", "E", "--rank", "6"),
                0,
                "d762007d706c84f59802f2499cca74f180d596fabdfce6e309110ce9812a3620",
                _check_e6,
                cli=False,
            )
        ]
    if name == "queries-top-cells":
        # `nash` runs on the seeded cell; `peterson` stays on the default
        # cell, whose graph costs a third of cell 1's, so that wall_s of
        # different seeds compares
        return [
            *_cell_pair("E", 6, 1, E6_TOP),
            *_cell_pair("A", 7, 4, A7_TOP),
            *_cell_pair("E", 7, 7, E7_CELLS[0], nash_word=E7_CELLS[seed % 3]),
            Invocation(
                ("grassmann", "--perm", "2,5,7,1,3,4,6,8", "--format", "json"),
                0,
                "9341d6695f0c0bfeefe53fd602aa074ac308d5d2fb7e8983bf58d5b8e8289537",
                _check_grassmann,
            ),
            Invocation(
                ("conjecture", "--perm", "5,2,3,4,1", "--format", "json"),
                1,
                "d8f7d344e5b5712f3bf8f44bd543fa6fd2f1e4bf0981a16d9aa1aa97f459f998",
                _check_conj_perm,
            ),
        ]
    raise KeyError(name)


WORKLOADS = ("verify-default", "conjecture-s6", "cominuscule-e6", "queries-top-cells")

# The E7/P7 top cell (length 27) is the whole variety: 56 fixed points, all
# fibers singletons, 56 translation states.  Both calls currently fail at the
# interval guard, so they run as a known-defect probe beside
# queries-top-cells instead of inside its measured loop.
E7_TOP_PROBE = _cell_pair("E", 7, 7, E7_TOP)


def gate(inv: Invocation, exit_code: int, stdout: bytes) -> str | None:
    """None when the output is right, else why it is wrong."""
    if exit_code != inv.exit_code:
        return f"exit code {exit_code}, expected {inv.exit_code}"
    if inv.sha256 is not None and hashlib.sha256(stdout).hexdigest() != inv.sha256:
        return "stdout digest differs from the pinned one"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    try:
        return inv.check(payload)
    except (KeyError, TypeError, IndexError) as exc:
        return f"unexpected JSON shape: {exc!r}"


@dataclass
class Tally:
    """ops_failed = failed / attempted, over every gated invocation."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, label: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.reasons.append(f"{label}: {problem}")
        return problem is None
