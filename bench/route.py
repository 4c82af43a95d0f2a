"""One benchmark child process: a CLI call, the E6 sweep, or the micro-benchmark.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/route.py [--trace] [--op N] cli <nashblowup arguments...>
    python3 bench/route.py [--trace] [--op N] cominuscule --type E --rank 6
    python3 bench/route.py [--seed N] micro

``cli`` runs ``nashblowup.cli.main(argv)`` in this cold process.
``cominuscule`` is the full cominuscule sweep of one type (theorem 2 and
singular-locus agreement on every datum), driven through public library
calls because the ``verify`` CLI cannot reach E6; it prints its JSON payload
the way the CLI prints its own.  ``micro`` times root-system construction and
``weyl.multiply``.

Stdout carries the payload only.  The last line of stderr is one JSON object
with the wall and CPU seconds of the work (imports excluded), the
``bruhat_leq`` cache counters and, with ``--trace``, every span recorded.

Tracing replaces public functions by timing wrappers through ``setattr`` on
their defining module.  A call is therefore visible when it goes through the
module attribute or the module's own globals (``nashcore.nash_fiber(...)``
from ``sweeps``, ``interval_min_reps`` calling ``lower_interval``).  A call
bound by ``from .x import f`` inside the package keeps the original function:
it is not visible and counts as self time of its caller.  For example
``zelevinsky.conjecture_check`` imports ``eventual_translates`` that way, so
on the conjecture sweep the translation graph is self time of
``zelevinsky.conjecture_check``.  The self time of the ``cli.main`` span is
the CLI's own cost: parsing, datum checks and report building.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import random
import statistics
import sys
import time
from contextlib import redirect_stdout

from nashblowup import (
    cli,
    grassmann,
    nashcore,
    peterson,
    rootsystem,
    sweeps,
    weyl,
    zelevinsky,
)

# functions wrapped in spans when tracing, by module; names are module.function
TRACED = {
    rootsystem: ("build",),
    weyl: ("interval_min_reps", "lower_interval", "longest_element"),
    nashcore: (
        "nash_fiber",
        "nash_fixed_points",
        "nash_report",
        "singular_fixed_points",
    ),
    peterson: (
        "eventual_translates",
        "verify_theorem2",
        "ck_singular_points",
        "fixed_point_table",
        "graph_to_json",
    ),
    zelevinsky: (
        "conjecture_check",
        "covexillary_datum",
        "schubert_fixed_points",
        "z_fiber_count",
        "zdual_fiber_count",
        "fiberproduct_count",
    ),
    grassmann: (
        "is_covexillary",
        "coessential_set",
        "coess_nash_formula",
        "partition_of",
        "inner_corners",
        "delta_w_perm",
        "max_coset_rep_perm",
        "grassmannian_max_rep",
        "nash_blowup_smooth",
        "config_description",
    ),
    sweeps: (
        "theorem2_sweep",
        "singular_agreement_sweep",
        "coess_formula_sweep",
        "fiberproduct_sweep",
        "conjecture_sweep",
    ),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, operation id]."""

    def __init__(self, op: int) -> None:
        self.op = op
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if name == "peterson.eventual_translates":
                self._count("peterson.states", len(result.nodes))
                self._count("peterson.edges", len(result.edges))
            return result

        return traced

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def install(self) -> None:
        for module, names in TRACED.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                setattr(module, name, self.span(f"{short}.{name}", getattr(module, name)))
        # the harness's own E6 sweep, so that its self time shows
        here = sys.modules[__name__]
        here.cominuscule_sweep = self.span("route.cominuscule_sweep", cominuscule_sweep)


# -- the cominuscule sweep the verify CLI cannot reach ---------------------


def cominuscule_sweep(family: str, rank: int) -> dict:
    """Theorem 2 and fiber-versus-translate singular agreement on every datum."""
    rs = rootsystem.root_system(family, rank)
    w0 = weyl.longest_element(rs)
    rows = []
    for node in sorted(rs.cominuscule_simples):
        p = weyl.ParabolicSubset(frozenset(range(1, rank + 1)) - {node})
        reps = sorted(
            weyl.interval_min_reps(w0, p, max_length=w0.length),
            key=lambda w: (w.length, weyl.reduced_word(w)),
        )
        for w in reps:
            d = nashcore.SchubertDatum(system=rs, p=p, w=w)
            report = peterson.verify_theorem2(d)
            via_fibers = nashcore.singular_fixed_points(d)
            via_translates = peterson.ck_singular_points(w, p)
            rows.append(
                {
                    "node": node,
                    "w": list(weyl.reduced_word(w)),
                    "fixed_points": report.fixed_point_count,
                    "states": report.state_count,
                    "theorem2_ok": report.ok,
                    "singular": sorted(list(weyl.reduced_word(v)) for v in via_fibers),
                    "singular_agree": via_fibers == via_translates,
                }
            )
    return {"type": f"{family}{rank}", "data": rows}


# -- micro-benchmark -----------------------------------------------------------


def micro(seed: int) -> dict:
    """Cold E6 + E7 construction, then seeded ``weyl.multiply`` timings."""
    t0 = time.perf_counter()
    rootsystem.build(rootsystem.CartanType("E", 6))
    rootsystem.build(rootsystem.CartanType("E", 7))
    out: dict = {"rootsystem.build_ms": (time.perf_counter() - t0) * 1e3}
    rng = random.Random(seed)
    pairs: dict[str, list] = {}
    wrong = 0
    for family, rank in (("A", 7), ("E", 6), ("E", 7)):
        rs = rootsystem.root_system(family, rank)
        words = [[rng.randint(1, rank) for _ in range(rng.randint(0, 30))] for _ in range(400)]
        pairs[f"{family}{rank}"] = [
            (weyl.from_word(rs, a), weyl.from_word(rs, b)) for a, b in zip(words[::2], words[1::2])
        ]
        for u, v in pairs[f"{family}{rank}"]:
            composed = weyl.from_word(rs, weyl.reduced_word(u) + weyl.reduced_word(v))
            wrong += weyl.multiply(u, v) != composed
    per_call: dict[str, list[float]] = {name: [] for name in pairs}
    gc.disable()  # a collection over the interned elements would land in one batch
    try:
        # batches of the three types interleave, so machine noise hits them alike
        for _ in range(15):
            for name, batch in pairs.items():
                t0 = time.perf_counter()
                for u, v in batch:
                    weyl.multiply(u, v)
                per_call[name].append((time.perf_counter() - t0) / len(batch) * 1e6)
    finally:
        gc.enable()
    for name, times in per_call.items():
        out[f"weyl.multiply_us.{name}"] = statistics.median(times)
    out["products_wrong"] = wrong
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--op", type=int, default=0, help="operation id stamped on spans")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("route", choices=("cli", "cominuscule", "micro"))
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()

    if args.route == "micro":
        print(json.dumps(micro(args.seed), sort_keys=True))
        return 0

    tracer = Tracer(args.op) if args.trace else None
    entry = cli.main
    if tracer:
        tracer.install()
        entry = tracer.span("cli.main", cli.main)
    code = 0
    c0, t0 = time.process_time(), time.perf_counter()
    if args.route == "cli":
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = entry(args.argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        sys.stdout.write(buf.getvalue())
    else:
        ap = argparse.ArgumentParser(prog="cominuscule")
        ap.add_argument("--type", required=True)
        ap.add_argument("--rank", type=int, required=True)
        sweep_args = ap.parse_args(args.argv)
        payload = cominuscule_sweep(sweep_args.type.upper(), sweep_args.rank)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    sys.stdout.flush()
    info = weyl.bruhat_leq.cache_info()
    meta = {
        "wall": wall,
        "cpu": cpu,
        "bruhat_hits": info.hits,
        "bruhat_misses": info.misses,
        "counts": tracer.counts if tracer else {},
        "spans": tracer.spans if tracer else [],
    }
    print(json.dumps(meta), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
