"""Benchmark of the nashblowup command line, with a traced per-layer run.

Run from the repository root::

    python3 bench/run.py --workload verify-default --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

``--trace 0`` runs the workload as real CLI invocations in a closed loop: one
client, one fresh child process at a time, ``--jobs 1``.  Every invocation is
gated on its exit code, its pinned stdout digest and its headline counts
(bench/cases.py).  It reports the end-to-end metrics ``wall_s`` (one workload
iteration, process start-up included; median over iterations), ``setup_s``
(spawn an interpreter and ``import nashblowup.cli``; median of several
spawns) and ``peak_rss_mb`` (largest per-child peak RSS from ``os.wait4``;
median over iterations).  ``ops_failed`` is the top-level ``failed`` over
``attempted``.

``--trace 1`` runs each invocation twice, each time in a cold process
and in-process (bench/route.py): untraced, then with spans around the public
functions of each module.  It reports the per-layer metrics and writes every
span to ``bench/out/``.  See bench/README.md for the metric map.

The last line of stdout is the result object; earlier lines record the git
sha, Python version, CPU count and the invocation list.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ROUTE = f"{HERE.name}/route.py"  # children run in ROOT
OUT_DIR = HERE / "out"
PY = sys.executable
SETUP_SPAWNS = 15
CHILD_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 30.0

# per-layer self-time metrics: span names whose self time they sum
SELF_TIME = {
    "weyl.quotient_s": ("weyl.interval_min_reps", "weyl.lower_interval", "weyl.longest_element"),
    "nashcore.fiber_s": ("nashcore.nash_fiber",),
    "nashcore.fixed_points_s": ("nashcore.nash_fixed_points",),
    "peterson.graph_s": ("peterson.eventual_translates",),
    "peterson.theorem2_s": ("peterson.verify_theorem2",),
    "peterson.ck_singular_s": ("peterson.ck_singular_points",),
    "zelevinsky.chain_count_s": (
        "zelevinsky.z_fiber_count",
        "zelevinsky.zdual_fiber_count",
        "zelevinsky.fiberproduct_count",
    ),
    "zelevinsky.fixed_points_s": ("zelevinsky.schubert_fixed_points",),
    "zelevinsky.check_self_s": ("zelevinsky.conjecture_check",),
    "grassmann.covexillary_s": ("grassmann.is_covexillary",),
    "grassmann.coess_s": ("grassmann.coessential_set", "grassmann.coess_nash_formula"),
    "sweeps.self_s": (
        "sweeps.theorem2_sweep",
        "sweeps.singular_agreement_sweep",
        "sweeps.coess_formula_sweep",
        "sweeps.fiberproduct_sweep",
        "sweeps.conjecture_sweep",
        "route.cominuscule_sweep",
    ),
}
@dataclass
class Run:
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("NASHBLOWUP_INTERVAL_MAX", None)  # measure the program's defaults
    return env


ENV = child_env()


def spawn(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> Run:
    """Run one child to completion; wall, CPU and peak RSS come from os.wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV, cwd=ROOT
    )
    got: dict = {}

    def reap() -> None:
        got["wait"] = os.wait4(proc.pid, 0)
        got["end"] = time.perf_counter()

    threads = [
        threading.Thread(target=lambda: got.__setitem__("out", proc.stdout.read())),
        threading.Thread(target=lambda: got.__setitem__("err", proc.stderr.read())),
        threading.Thread(target=reap),
    ]
    for t in threads:
        t.start()
    threads[2].join(timeout)
    if threads[2].is_alive():
        os.kill(proc.pid, signal.SIGKILL)  # not yet reaped, so the pid is still ours
    for t in threads:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    _, status, ru = got["wait"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        code=proc.returncode,
        stdout=got["out"],
        stderr=got["err"],
        wall=got["end"] - t0,
        cpu=ru.ru_utime + ru.ru_stime,
        rss_mb=ru.ru_maxrss / 1024.0,
    )


def end_to_end_argv(inv: cases.Invocation) -> list[str]:
    if inv.cli:
        return [PY, "-m", "nashblowup", *inv.args]
    return [PY, ROUTE, *inv.args]


def label(inv: cases.Invocation) -> str:
    return " ".join(a for a in inv.args if a not in ("--format", "json"))


def git_sha() -> str:
    """Read .git directly: the benchmark may run in a checkout without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, invs: list[cases.Invocation]) -> dict:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "invocations": [end_to_end_argv(inv)[1:] for inv in invs],
    }


def measure_setup() -> list[float]:
    argv = [PY, "-c", "import nashblowup.cli"]
    spawn(argv)  # writes bytecode caches; users do not pay that on every run
    return [spawn(argv).wall for _ in range(SETUP_SPAWNS)]


def probe_e7_top() -> str:
    """The known-defect probe; its failures are printed, not counted."""
    parts = []
    for inv in cases.E7_TOP_PROBE:
        r = spawn(end_to_end_argv(inv), timeout=PROBE_TIMEOUT_S)
        problem = cases.gate(inv, r.code, r.stdout)
        tail = r.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        parts.append(f"{label(inv)}: " + ("ok" if problem is None else f"FAIL ({problem}; {tail[0]})"))
    return "known-defect probe, E7/P7 top cell, not counted in failed: " + " | ".join(parts)


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def report(values: dict[str, float], section: str) -> dict:
    """Exactly the declared metrics; a missing value is a KeyError, not a gap."""
    return {name: {"value": values[name], "unit": unit} for name, unit in declared(section).items()}


def run_untraced(workload: str, seconds: float, invs: list[cases.Invocation]) -> dict:
    setup = measure_setup()
    if workload == "queries-top-cells":
        print(probe_e7_top())
    tally = cases.Tally()
    walls: list[float] = []
    rss: list[float] = []
    start = time.perf_counter()
    while True:
        wall = peak = 0.0
        for inv in invs:
            r = spawn(end_to_end_argv(inv))
            wall += r.wall
            peak = max(peak, r.rss_mb)
            tally.record(label(inv), cases.gate(inv, r.code, r.stdout))
        walls.append(wall)
        rss.append(peak)
        elapsed = time.perf_counter() - start
        # closed loop: start another iteration only if it should end in time
        if elapsed + statistics.median(walls) > seconds:
            break
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    metrics = report(
        {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
        },
        "end_to_end",
    )
    samples = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": len(rss)}
    for name, m in metrics.items():
        print(f"{workload}  {name:<12} {m['value']:10.4f} {m['unit']:<3} (median of {samples[name]})")
    print(f"{workload}  ops_failed   {tally.failed}/{tally.attempted} ratio")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def _meta(r: Run) -> dict:
    lines = r.stderr.decode(errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"wall": 0.0, "cpu": 0.0, "bruhat_hits": 0, "bruhat_misses": 0, "counts": {}, "spans": []}


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: duration minus the part covered by its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def run_traced(workload: str, seed: int, invs: list[cases.Invocation], env: dict) -> dict:
    tally = cases.Tally()
    micro = spawn([PY, ROUTE, "--seed", str(seed), "micro"])
    bench = json.loads(micro.stdout) if micro.code == 0 else {}
    wrong = bench.pop("products_wrong", None)
    tally.record("weyl.multiply against from_word", None if wrong == 0 else f"{wrong} wrong products")

    spans: list[list] = []
    selfs: dict[str, float] = {}
    counts: dict[str, int] = {}
    cpu = plain_wall = traced_wall = 0.0
    hits = calls = 0
    for op, inv in enumerate(invs):
        argv = ["cli", *inv.args] if inv.cli else list(inv.args)
        plain = spawn([PY, ROUTE, *argv])
        tally.record(f"{label(inv)} [untraced]", cases.gate(inv, plain.code, plain.stdout))
        traced = spawn([PY, ROUTE, "--trace", "--op", str(op), *argv])
        tally.record(f"{label(inv)} [traced]", cases.gate(inv, traced.code, traced.stdout))
        pm, tm = _meta(plain), _meta(traced)
        cpu += plain.cpu
        plain_wall += pm["wall"]
        traced_wall += tm["wall"]
        hits += pm["bruhat_hits"]
        calls += pm["bruhat_hits"] + pm["bruhat_misses"]
        for key, n in tm["counts"].items():
            counts[key] = counts.get(key, 0) + n
        for key, s in self_times(tm["spans"]).items():
            selfs[key] = selfs.get(key, 0.0) + s
        base = len(spans)
        spans.extend(
            [n, s, e, None if p is None else p + base, o] for n, s, e, p, o in tm["spans"]
        )

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(
        json.dumps({"env": env, "fields": ["name", "start", "end", "parent", "op"], "spans": spans})
    )
    print(f"spans: {len(spans)} written to {trace_file.relative_to(ROOT)}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")

    values: dict[str, float] = dict(bench)
    for key, names in SELF_TIME.items():
        values[key] = sum(selfs.get(n, 0.0) for n in names)
    values.update(
        {
            "weyl.bruhat_leq.calls": calls,
            "weyl.bruhat_leq.hit_ratio": hits / calls if calls else 0.0,
            "nashcore.fiber_calls": sum(1 for sp in spans if sp[0] == "nashcore.nash_fiber"),
            "peterson.states": counts.get("peterson.states", 0),
            "peterson.edges": counts.get("peterson.edges", 0),
            "cli.overhead_s": selfs.get("cli.main", 0.0),
            "cpu_s": cpu,
            "trace.overhead_ratio": traced_wall / plain_wall if plain_wall else 0.0,
        }
    )
    metrics = report(values, "per_layer")
    for name, m in metrics.items():
        print(f"{workload}  {name:<28} {m['value']:14.6f} {m['unit']}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*cases.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "nashblowup" / "cli.py").is_file():
        print(f"error: {SRC / 'nashblowup'} not found; run from the repository root", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    names = cases.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        invs = cases.workload(name, args.seed)
        # one child at a time; a --jobs N child would add N worker processes
        over = [label(inv) for inv in invs if inv.jobs > nproc]
        if over:
            print(f"error: {over} would run more processes than nproc={nproc}", file=sys.stderr)
            return 2
    for name in names:
        invs = cases.workload(name, args.seed)
        env = environment(name, args.seed, invs)
        print(json.dumps(env))
        if args.trace:
            result = run_traced(name, args.seed, invs, env)
        else:
            result = run_untraced(name, args.seconds, invs)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
