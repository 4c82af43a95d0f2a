"""Exhaustive small-rank verification sweeps.

Each sweep returns a :class:`SweepOutcome` whose ``failures`` list is empty
exactly when the property holds on all of its data.  The sweeps of the
first four checks below are the library form of the CLI ``verify``
subcommand; :func:`conjecture_sweep`, the fifth, is that of
``conjecture --n`` only.
:func:`cominuscule_sweep` makes the first two checks in one walk over the
cominuscule data: per datum, the fixed points grouped by the coset key
z(R^- minus R_L^-), exact as W_P is the stabilizer of that set, and one
edge-free translation walk, no graph.  :func:`theorem2_sweep` and
:func:`singular_agreement_sweep` return its halves.  The fiber-product
sweep reads the same pass per Grassmannian datum: a fiber's size is the
length of its group, its base point the group's shortest member, and the
translate counts come from the walk.

* translate-bijection sweep: the closed-form map is a bijection onto the
  eventual translates for every cominuscule datum of the given types;
* singular-locus agreement: fiber-size singularity equals the
  translate-multiplicity criterion;
* coessential closed form: the box formula for the Nash parabolic's maximal
  representative agrees with the direct computation, ranks included;
* fiber-product counts: Nash fiber size, resolution fiber product and
  per-point translate count agree on every Grassmannian fixed point;
* fiber-product conjecture: the resolution fiber product equals the
  translate count at every fixed point of every covexillary w in S_n
  (from S_5 on it fails, on the w containing 52341).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from typing import Iterator, Sequence

from . import grassmann, nashcore, peterson, zelevinsky
from .rootsystem import (
    DEFAULT_TYPES,
    CartanType,
    InvariantViolation,
    build,
    root_system,
)
from .weyl import (
    ParabolicSubset,
    format_word,
    interval_min_reps,
    longest_element,
    reduced_word,
    _element,
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


class SweepOutcome:
    """A sweep's label, data count and failure records, filled in as it runs."""

    def __init__(
        self, label: str, checked: int = 0, failures: list[dict] | None = None
    ) -> None:
        self.label = label
        self.checked = checked
        self.failures = [] if failures is None else failures

    def __eq__(self, other: object) -> bool:
        return type(other) is SweepOutcome and self.to_json() == other.to_json()

    def __repr__(self) -> str:
        return f"SweepOutcome({self.label!r}, {self.checked}, {self.failures!r})"

    def to_json(self) -> dict:
        return {"label": self.label, "checked": self.checked, "failures": self.failures}

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        return f"{self.label}: checked {self.checked}, {verdict}"


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

    Both checks of a datum read one edge-free walk and one grouping of the
    fixed points by coset key, each kept in a one-entry memo.
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
                            "direct": sorted([b.p, b.q, b.r] for b in direct),
                            "formula": sorted([b.p, b.q, b.r] for b in formula),
                        }
                    )
    return out


def _fiberproduct_mismatches(n: int, k: int, w: grassmann.Permutation) -> list[dict]:
    """The fixed points v of X_w^P where Nash fiber size, resolution product
    and translate count differ, by (length, reduced word) of v."""
    rs = root_system("A", n - 1)
    p = ParabolicSubset(frozenset(range(1, n)) - {k})
    w_el = grassmann.perm_to_weyl(rs, w)
    groups = nashcore._fixed_point_groups(nashcore.SchubertDatum(rs, p, w_el))
    counts = peterson.translate_counts(w_el, p)
    # the resolutions live over the flag variety with steps at the box
    # columns, so each Grassmannian point is evaluated at its image flag
    cov = zelevinsky.covexillary_datum(grassmann.grassmannian_max_rep(w, k))
    bases, bad = set(), []
    for g in groups.values():  # a fiber's base point is its shortest member
        v = _element(rs, g[0])
        perm = grassmann.weyl_to_perm(v)
        uppers = [bisect_right(sorted(perm[: b.q]), b.p) for b in cov.boxes]
        z_count, zdual_count = zelevinsky._chain_counts(uppers, cov)
        size, product, translates = len(g), z_count * zdual_count, counts[v]
        bases.add(v)
        if not size == product == translates:
            point = {
                "v": list(perm),
                "nash_fiber": size,
                "product": product,
                "translates": translates,
            }
            bad.append((v.length, reduced_word(v), point))
    zelevinsky._check_states_over(counts, bases)
    return [point for *_, point in sorted(bad)]


def fiberproduct_sweep(max_n: int = 7) -> SweepOutcome:
    out = SweepOutcome("fiber product counts")
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for w in grassmannian_perms(n, k):
                points = _fiberproduct_mismatches(n, k, w)
                out.checked += 1
                if points:
                    out.failures.append({"n": n, "k": k, "w": list(w), "points": points})
    return out


def covexillary_perms(n: int) -> Iterator[grassmann.Permutation]:
    """The covexillary permutations of 1..n, in lexicographic order.

    Covexillary is 3412-avoiding (Fulton, Duke Math. J. 65, 1992), so the
    permutations are built depth first, value by value, and a prefix is
    never extended by a value that would complete a 3412.  Along a prefix
    ``top`` is the largest value followed by a larger one (a "3" with its
    "4"); placing x below it bans every later value strictly between x and
    ``top`` (a "2" after the "1" x).  ``banned`` collects those values.
    """
    full = (1 << n + 1) - 2  # bits 1..n
    stack = [((), 0, 0, 0)]  # (prefix, used values, banned values, top)
    while stack:
        prefix, used, banned, top = stack.pop()
        if len(prefix) == n:
            yield prefix
            continue
        free = full & ~used & ~banned
        for x in range(n, 0, -1):  # pushed high first, so popped in order
            if free >> x & 1:
                below = (used & (1 << x) - 1).bit_length() - 1
                ban = (1 << top) - (2 << x) if top > x else 0
                state = (prefix + (x,), used | 1 << x, banned | ban, max(top, below))
                stack.append(state)


def _conjecture_verdict(w: grassmann.Permutation) -> tuple[tuple[int, ...], list[dict]]:
    try:
        report = zelevinsky.conjecture_check(w)
    except ValueError as exc:  # w avoids 3412, so no input of the check is bad
        raise InvariantViolation(f"checking enumerated {w}: {exc}") from None
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
