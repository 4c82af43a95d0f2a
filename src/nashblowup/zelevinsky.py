"""Paired small resolutions of covexillary Schubert varieties, and the
fiber-product conjecture check.

A covexillary permutation w, taken as the maximal representative of w W_P
for the parabolic generated by its descents, has sortable coessential boxes
(p_i, q_i, r_i).  Two resolution spaces sit over X_w^P:

    Z  : flags F with F_{r_i} inside E_{p_i} intersect V_{q_i},
    Z' : flags F with F_{q_i + p_i - r_i} containing E_{p_i} + V_{q_i},

where E is the fixed reference flag and V runs over the variety.  Both
project to X_w^P; over a torus-fixed point every fiber is a finite set of
coordinate-subspace chains.  The steps of both conditions are nested, so
each count is a product of binomial coefficients, one per box.

The conjecture check compares, at every fixed point, the product of the two
fiber counts with the number of eventual Peterson translates of the minimal
representative of w W_P sitting at that point; a translate sitting at no
fixed point is an internal fault.  Both counts and the rank conditions are
read off |S_{q_i} cap {1..p_i}| per box, in one place.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb
from typing import Container, Iterable, NamedTuple, Sequence

from .grassmann import (
    CoessBox,
    Permutation,
    check_permutation,
    coessential_set,
    descent_set,
    min_coset_rep_perm,
    perm_to_weyl,
    weyl_to_perm,
    _sortable,
)
from .peterson import translate_counts
from .rootsystem import InvariantViolation, root_system
from .weyl import ParabolicSubset, WeylElement, interval_min_reps

__all__ = [
    "CovexillaryDatum",
    "CoordFlag",
    "covexillary_datum",
    "schubert_fixed_points",
    "z_fiber_count",
    "zdual_fiber_count",
    "fiberproduct_count",
    "ConjecturePoint",
    "ConjectureReport",
    "conjecture_check",
]


class CovexillaryDatum(NamedTuple):
    """A covexillary permutation with its descent parabolic and sorted boxes."""

    w: Permutation
    n: int
    levi: frozenset[int]
    boxes: tuple[CoessBox, ...]


class CoordFlag(NamedTuple):
    """Coordinate subspaces S_{q_1} <= ... <= S_{q_m}, one step per box."""

    steps: tuple[tuple[int, ...], ...]


def covexillary_datum(w: Permutation) -> CovexillaryDatum:
    n = check_permutation(w)
    coess = coessential_set(w)
    if not _sortable(coess):
        raise ValueError(f"{w} is not covexillary")
    levi = descent_set(w)
    boxes = tuple(sorted(coess, key=lambda b: (b.p, b.q)))
    qs = [b.q for b in boxes]
    if qs != sorted(qs):
        raise ValueError(f"boxes of {w} are not simultaneously sortable")
    # every ascent of w carries at least one box, so the distinct q's are
    # exactly the flag steps of G/P
    ascents = {j for j in range(1, n) if j not in levi}
    if set(qs) != ascents:
        raise ValueError(f"box columns {sorted(set(qs))} differ from ascents")
    rs = [b.r for b in boxes]
    if rs != sorted(rs):
        raise ValueError(f"box ranks of {w} are not monotone")
    return CovexillaryDatum(w=w, n=n, levi=levi, boxes=boxes)


def _fixed_points(d: CovexillaryDatum, seed: WeylElement) -> list[tuple]:
    """(v, its element, flag of v) per fixed point below ``seed``, sorted by v."""
    out = []
    for z in interval_min_reps(seed, ParabolicSubset(d.levi)):
        v = weyl_to_perm(z)
        out.append((v, z, CoordFlag(tuple(tuple(sorted(v[: b.q])) for b in d.boxes))))
    out.sort(key=lambda t: t[0])
    if len({f for _, _, f in out}) != len(out):
        raise InvariantViolation("fixed flags failed to separate fixed points")
    return out


def schubert_fixed_points(d: CovexillaryDatum) -> list[tuple[Permutation, CoordFlag]]:
    """(v, flag of v) for every torus-fixed point of X_w^P, v in W^P, v <= w.

    The points are the ideal walked by :func:`weyl.interval_min_reps` below
    the minimal representative of w W_P, read back as one-line tuples.
    """
    seed = perm_to_weyl(root_system("A", d.n - 1), min_coset_rep_perm(d.w, d.levi))
    return [(v, f) for v, _, f in _fixed_points(d, seed)]


def _chain_counts(uppers: Sequence[int], d: CovexillaryDatum) -> tuple[int, int]:
    """(Z count, Z' count) from |S_{q_i} cap {1..p_i}| per box, checked to
    meet every rank condition: the products of binomials of
    :func:`z_fiber_count` and :func:`zdual_fiber_count`."""
    z_count, prev_r = 1, 0
    for upper, box in zip(uppers, d.boxes):
        if upper < box.r:
            raise ValueError(
                f"flag violates the rank condition of box "
                f"({box.p},{box.q},{box.r}); not a point of the variety"
            )
        z_count *= comb(upper - prev_r, box.r - prev_r)
        prev_r = box.r
    zdual_count, above = 1, d.n
    for upper, box in zip(reversed(uppers), reversed(d.boxes)):
        lower = box.p + box.q - upper  # |{1..p} union S_q|
        size = box.q + box.p - box.r
        zdual_count *= comb(above - lower, above - size)
        above = size
    return z_count, zdual_count


def _check_states_over(counts: Iterable, fixed: Container) -> None:
    """Raise unless every z that carries translation states is a fixed point."""
    foreign = [z for z in counts if z not in fixed]
    if foreign:
        v = list(weyl_to_perm(foreign[0]))
        raise InvariantViolation(f"translation states over {v}, not a fixed point")


def _fiber_counts(flag: CoordFlag, d: CovexillaryDatum) -> tuple[int, int]:
    """(Z count, Z' count) at a flag, its steps checked to form a flag."""
    if len(flag.steps) != len(d.boxes):
        raise ValueError("flag has the wrong number of steps")
    prev: frozenset[int] = frozenset()
    prev_q = 0
    uppers = []  # |S_{q_i} cap {1..p_i}|
    for step, box in zip(flag.steps, d.boxes):
        s = frozenset(step)
        if len(step) != box.q or len(s) != box.q or min(s) < 1 or max(s) > d.n:
            raise ValueError(f"step {step} is not a {box.q}-subset of 1..{d.n}")
        if box.q >= prev_q and not prev <= s:
            raise ValueError("flag steps are not nested")
        uppers.append(len([x for x in s if x <= box.p]))
        prev, prev_q = s, box.q
    return _chain_counts(uppers, d)


def z_fiber_count(flag: CoordFlag, d: CovexillaryDatum) -> int:
    """Fixed points of the Z-fiber: chains T_i of size r_i inside
    U_i = {1..p_i} intersect S_{q_i}.

    The U_i grow with i, so each T_i adds r_i - r_{i-1} elements of
    U_i minus T_{i-1}, which has |U_i| - r_{i-1} of them.
    """
    return _fiber_counts(flag, d)[0]


def zdual_fiber_count(flag: CoordFlag, d: CovexillaryDatum) -> int:
    """Fixed points of the Z'-fiber: chains T_i of size s_i = q_i + p_i - r_i
    containing L_i = {1..p_i} union S_{q_i}.

    The L_i grow with i, so the complements of the T_i form a chain inside
    the shrinking complements of the L_i.  Counted from the top, with
    s_{m+1} = n, T_i drops s_{i+1} - s_i elements of T_{i+1} minus L_i,
    which has s_{i+1} - |L_i| of them.
    """
    return _fiber_counts(flag, d)[1]


def fiberproduct_count(flag: CoordFlag, d: CovexillaryDatum) -> int:
    """Fixed points of the fiber of Z x_X Z' over the flag."""
    z_count, zdual_count = _fiber_counts(flag, d)
    return z_count * zdual_count


class ConjecturePoint(NamedTuple):
    v: Permutation
    z_count: int
    zdual_count: int
    product: int
    peterson_count: int

    @property
    def match(self) -> bool:
        return self.product == self.peterson_count


class ConjectureReport(NamedTuple):
    w: Permutation
    seed: Permutation  # the minimal representative fed to the translation engine
    points: tuple[ConjecturePoint, ...]

    @property
    def ok(self) -> bool:
        return all(pt.match for pt in self.points)

    @property
    def mismatches(self) -> tuple[ConjecturePoint, ...]:
        return tuple(pt for pt in self.points if not pt.match)

    def to_json(self) -> dict:
        return {
            "w": list(self.w),
            "seed": list(self.seed),
            "covexillary": True,
            "points": [
                {
                    "v": list(pt.v),
                    "z_count": pt.z_count,
                    "zdual_count": pt.zdual_count,
                    "product": pt.product,
                    "peterson_count": pt.peterson_count,
                    "match": pt.match,
                }
                for pt in self.points
            ],
            "verdict": "pass" if self.ok else "fail",
        }


def conjecture_check(w: Permutation) -> ConjectureReport:
    """Compare fiber-product counts with per-point Peterson translate counts.

    The translation engine is seeded with the minimal representative of
    w W_P, which indexes the same Schubert variety as w.
    """
    d = covexillary_datum(w)
    seed = min_coset_rep_perm(w, d.levi)
    seed_el = perm_to_weyl(root_system("A", d.n - 1), seed)
    counts = translate_counts(seed_el, ParabolicSubset(d.levi))
    fixed = _fixed_points(d, seed_el)
    _check_states_over(counts, {z for _, z, _ in fixed})
    # each flag step S_q is sorted, so |S_q cap {1..p}| is one bisection; the
    # rank condition and both counts depend on these numbers alone, and the
    # points of one w repeat them (86% of the points of S_6, 93% of S_7)
    ps = [b.p for b in d.boxes]
    chains_at: dict[tuple[int, ...], tuple[int, int]] = {}
    points = []
    for v, z, flag in fixed:
        uppers = tuple(map(bisect_right, flag.steps, ps))
        chains = chains_at.get(uppers)
        if chains is None:
            chains = chains_at[uppers] = _chain_counts(uppers, d)
        zc, zdc = chains
        points.append(ConjecturePoint(v, zc, zdc, zc * zdc, counts[z]))
    return ConjectureReport(w=w, seed=seed, points=tuple(points))
