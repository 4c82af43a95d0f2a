"""Exhaustive small-rank verification sweeps.

Each sweep returns a :class:`SweepOutcome` whose ``failures`` list is empty
exactly when the property holds on all of its data.  The sweeps are the
library form of the CLI ``verify`` subcommand and of the acceptance tests.
:func:`cominuscule_sweep` makes the first two checks in one walk over the
cominuscule data, building each datum's translation graph once;
:func:`theorem2_sweep` and :func:`singular_agreement_sweep` return its halves.

* translate-bijection sweep: the closed-form map is a bijection onto the
  eventual translates for every cominuscule datum of the given types;
* singular-locus agreement: fiber-size singularity equals the
  translate-multiplicity criterion;
* coessential closed form: the box formula for the Nash parabolic's maximal
  representative agrees with the direct computation, ranks included;
* fiber-product counts: Nash fiber size, resolution fiber product and
  per-point translate count agree on every Grassmannian fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

from . import grassmann, nashcore, peterson, zelevinsky
from .rootsystem import CartanType, build, root_system
from .weyl import (
    ParabolicSubset,
    format_word,
    interval_min_reps,
    longest_element,
    reduced_word,
)

__all__ = [
    "SweepOutcome",
    "DEFAULT_TYPES",
    "cominuscule_data",
    "cominuscule_sweep",
    "theorem2_sweep",
    "singular_agreement_sweep",
    "coess_formula_sweep",
    "fiberproduct_sweep",
    "conjecture_sweep",
    "grassmannian_perms",
    "covexillary_perms",
]


@dataclass
class SweepOutcome:
    label: str
    checked: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        return f"{self.label}: checked {self.checked}, {verdict}"


# the types the cominuscule sweeps take by default, verify --types included
DEFAULT_TYPES = tuple(
    CartanType(t[0], int(t[1])) for t in "A1 A2 A3 A4 A5 B2 B3 C2 C3 D4".split()
)


def cominuscule_data(
    types: Sequence[CartanType] = DEFAULT_TYPES,
) -> Iterator[nashcore.SchubertDatum]:
    """Every (cominuscule node, w in W^P) of each type, in the given order."""
    for ct in types:
        rs = build(ct)
        w0 = longest_element(rs)
        for node in sorted(rs.cominuscule_simples):
            p = ParabolicSubset(frozenset(range(1, rs.rank + 1)) - {node})
            reps = interval_min_reps(w0, p)
            for w in sorted(reps, key=lambda w: (w.length, reduced_word(w))):
                yield nashcore.SchubertDatum(system=rs, p=p, w=w)


def _datum_tag(d: nashcore.SchubertDatum) -> dict:
    return {
        "type": str(d.system.cartan_type),
        "node": d.cominuscule_index,
        "w": format_word(reduced_word(d.w)),
    }


def cominuscule_sweep(
    types: Sequence[CartanType] = DEFAULT_TYPES,
) -> tuple[SweepOutcome, SweepOutcome]:
    """(translate bijection, singular locus agreement) in one pass over the data.

    Both checks of a datum read one translation graph: ``verify_theorem2``
    builds it and ``ck_singular_points`` takes it from the memo of
    :func:`peterson.eventual_translates`.
    """
    bij = SweepOutcome("translate bijection")
    sing = SweepOutcome("singular locus agreement")
    for d in cominuscule_data(types):
        report = peterson.verify_theorem2(d)
        bij.checked += 1
        if not report.ok:
            bij.failures.append(
                _datum_tag(d)
                | {
                    "missing": len(report.missing),
                    "extra": len(report.extra),
                    "collisions": len(report.collisions),
                }
            )
        via_fibers = nashcore.singular_fixed_points(d)
        via_translates = peterson.ck_singular_points(d.w, d.p)
        sing.checked += 1
        if via_fibers != via_translates:
            sing.failures.append(
                _datum_tag(d)
                | {
                    "fiber_route": sorted(
                        format_word(reduced_word(v)) for v in via_fibers
                    ),
                    "translate_route": sorted(
                        format_word(reduced_word(v)) for v in via_translates
                    ),
                }
            )
    return bij, sing


def theorem2_sweep(types: Sequence[CartanType] = DEFAULT_TYPES) -> SweepOutcome:
    return cominuscule_sweep(types)[0]


def singular_agreement_sweep(
    types: Sequence[CartanType] = DEFAULT_TYPES,
) -> SweepOutcome:
    return cominuscule_sweep(types)[1]


def grassmannian_perms(n: int, k: int) -> Iterator[grassmann.Permutation]:
    """All Grassmannian permutations of 1..n with descent set inside {k}."""
    universe = range(1, n + 1)
    for chosen in combinations(universe, k):
        rest = tuple(x for x in universe if x not in chosen)
        yield chosen + rest


def coess_formula_sweep(max_n: int = 8) -> SweepOutcome:
    out = SweepOutcome("coessential closed form")
    for n in range(2, max_n + 1):
        ident = tuple(range(1, n + 1))
        for k in range(1, n):
            for w in grassmannian_perms(n, k):
                if w == ident:
                    continue
                levi_q = grassmann.delta_w_perm(w, k)
                direct = grassmann.coessential_set(
                    grassmann.max_coset_rep_perm(w, levi_q)
                )
                formula = grassmann.coess_nash_formula(w, k)
                out.checked += 1
                if direct != formula:
                    out.failures.append(
                        {
                            "n": n,
                            "k": k,
                            "w": list(w),
                            "direct": sorted(
                                (b.p, b.q, b.r) for b in direct
                            ),
                            "formula": sorted(
                                (b.p, b.q, b.r) for b in formula
                            ),
                        }
                    )
    return out


def _fiberproduct_point_counts(
    n: int, k: int, w: grassmann.Permutation
) -> list[tuple[grassmann.Permutation, int, int, int]]:
    """(v, nash fiber size, resolution product, translate count) per point."""
    rs = root_system("A", n - 1)
    p = ParabolicSubset(frozenset(range(1, n)) - {k})
    w_el = grassmann.perm_to_weyl(rs, w)
    datum = nashcore.SchubertDatum(system=rs, p=p, w=w_el)

    # the resolutions live over the flag variety with steps at the box
    # columns, so each Grassmannian point is evaluated at its image flag
    cov = zelevinsky.covexillary_datum(grassmann.grassmannian_max_rep(w, k))

    translate_counts = peterson.translate_counts(w_el, p)
    fibers = nashcore.nash_fibers(datum)

    rows = []
    for v_el in sorted(fibers, key=lambda z: (z.length, reduced_word(z))):
        v = grassmann.weyl_to_perm(v_el)
        flag = zelevinsky.CoordFlag(
            steps=tuple(tuple(sorted(v[: b.q])) for b in cov.boxes)
        )
        product = zelevinsky.fiberproduct_count(flag, cov)
        rows.append((v, len(fibers[v_el]), product, translate_counts[v_el]))
    return rows


def fiberproduct_sweep(max_n: int = 7) -> SweepOutcome:
    out = SweepOutcome("fiber product counts")
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for w in grassmannian_perms(n, k):
                rows = _fiberproduct_point_counts(n, k, w)
                out.checked += 1
                bad = [
                    row for row in rows if not (row[1] == row[2] == row[3])
                ]
                if bad:
                    out.failures.append(
                        {
                            "n": n,
                            "k": k,
                            "w": list(w),
                            "points": [
                                {
                                    "v": list(v),
                                    "nash_fiber": fib,
                                    "product": prod,
                                    "translates": tr,
                                }
                                for v, fib, prod, tr in bad
                            ],
                        }
                    )
    return out


def covexillary_perms(n: int) -> Iterator[grassmann.Permutation]:
    from itertools import permutations

    for w in permutations(range(1, n + 1)):
        if grassmann.is_covexillary(w):
            yield w


def _conjecture_verdict(w: grassmann.Permutation) -> tuple[tuple[int, ...], list[dict]]:
    report = zelevinsky.conjecture_check(w)
    bad = [
        {
            "v": list(pt.v),
            "product": pt.product,
            "peterson_count": pt.peterson_count,
        }
        for pt in report.mismatches
    ]
    return w, bad


def conjecture_sweep(n: int, jobs: int = 1) -> SweepOutcome:
    out = SweepOutcome(f"fiber-product conjecture on S_{n}")
    perms = list(covexillary_perms(n))
    if jobs > 1:  # the pool stack loads only here, off the start-up path
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_conjecture_verdict, perms, chunksize=16))
    else:
        results = [_conjecture_verdict(w) for w in perms]
    for w, bad in results:
        out.checked += 1
        if bad:
            out.failures.append({"w": list(w), "points": bad})
    return out
