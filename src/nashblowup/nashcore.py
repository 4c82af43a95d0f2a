"""Nash blow-ups of cominuscule Schubert varieties, combinatorially.

A datum is a cominuscule maximal parabolic P (its Levi omits exactly one
simple index, which must carry coefficient 1 in the highest root) together
with a minimal coset representative w.  The Nash blow-up of the Schubert
variety X_w^P is again a Schubert variety X_w^Q for the parabolic Q
generated by

    Delta_w = {alpha in Delta_L : w(alpha) is simple},

and the blow-down map is the coset projection W^Q -> W^P on torus-fixed
points.  This module computes Q, the fixed points, the fibers over fixed
points of X_w^P, and hence the smooth locus; all but Q are read off one walk
of W^Q below w, grouped by coset key.

No fixed point is projected: u preserves R^- minus R_L^- iff it fixes 2rho -
2rho_L, whose stabilizer is W_P (Humphreys, Reflection Groups and Coxeter
Groups, 1.12), so z(R^- minus R_L^-) keys z W_P.  As W^P lies in W^Q, a
fiber holds its coset's minimal representative, its shortest member.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, NamedTuple

from .rootsystem import Root, RootSystem, format_root
from .weyl import (
    ParabolicSubset,
    WeylElement,
    format_word,
    is_min_coset_rep,
    reduced_word,
    _check_levi,
    _element,
    _ideal_tables,
    _set_type,
    _table_length,
)

__all__ = [
    "SchubertDatum",
    "NotCominusculeError",
    "delta_w",
    "tangent_roots",
    "nash_parabolic",
    "nash_fixed_points",
    "nash_fibers",
    "nash_fiber",
    "singular_fixed_points",
    "nash_report",
]


class NotCominusculeError(ValueError):
    """The omitted simple root is not cominuscule for this type."""

    def __init__(self, system: RootSystem, index: int) -> None:
        self.index = index
        self.coefficient = system.highest_root[index - 1]
        super().__init__(
            f"simple root a{index} of {system.cartan_type} has coefficient "
            f"{self.coefficient} in the highest root {format_root(system.highest_root)}; "
            f"cominuscule choices are {sorted(system.cominuscule_simples)}"
        )


class SchubertDatum(
    NamedTuple(
        "SchubertDatum",
        [("system", RootSystem), ("p", ParabolicSubset), ("w", WeylElement)],
    )
):
    """A cominuscule maximal parabolic P and a minimal coset representative w.

    A record: immutable, equal to and hashed as its field tuple ``(system, p, w)``."""

    __slots__ = ()

    def __new__(cls, system: RootSystem, p: ParabolicSubset, w: WeylElement):
        _check_levi(system, p)
        missing = frozenset(range(1, system.rank + 1)) - p.levi
        if len(missing) != 1:
            raise ValueError(
                f"levi {sorted(p.levi)} must omit exactly one of 1..{system.rank}"
            )
        (idx,) = missing
        if idx not in system.cominuscule_simples:
            raise NotCominusculeError(system, idx)
        if w.system is not system:
            raise ValueError("w belongs to a different root system")
        if not is_min_coset_rep(w, p):
            raise ValueError(
                f"w = {format_word(reduced_word(w))} is not a minimal coset "
                f"representative for levi {sorted(p.levi)}"
            )
        return super().__new__(cls, system, p, w)

    @property
    def cominuscule_index(self) -> int:
        (idx,) = frozenset(range(1, self.system.rank + 1)) - self.p.levi
        return idx


def delta_w(d: SchubertDatum) -> frozenset[int]:
    """Levi indices whose simple root stays simple under w."""
    return frozenset(i for i in d.p.levi if d.system.is_simple(d.w.column(i)))


def tangent_roots(d: SchubertDatum) -> frozenset[Root]:
    """E = w^{-1}(LInv(w)), inside R^- minus R_L^-: the negative roots that
    w makes positive, read off w's table."""
    roots, n = d.system.roots, len(d.system.positive_roots)
    return frozenset(roots[i] for i, j in enumerate(d.w.perm[n:], n) if j < n)


def nash_parabolic(d: SchubertDatum) -> ParabolicSubset:
    return ParabolicSubset(delta_w(d))


@lru_cache(maxsize=None)
def _ambient_indices(system: RootSystem, levi: frozenset[int]) -> tuple[int, ...]:
    """Indices of R^- minus R_L^- in ``system.roots``."""
    return tuple(
        system.index[b] for b in system.negative_roots if not system.in_levi(b, levi)
    )


def _image_set(indices: tuple[int, ...], pack: Callable) -> Callable:
    """Raw table t -> ``pack`` of the images of ``indices`` under t, ascending."""
    if len(indices) < 2:  # itemgetter gives a bare int for one index
        return lambda t: pack(t[i] for i in indices)
    return lambda t, images=itemgetter(*indices): pack(sorted(images(t)))


@lru_cache(maxsize=1)  # the checks of one datum made in a row share it
def _fixed_point_groups(d: SchubertDatum) -> dict:
    """{z(R^- minus R_L^-) as step tables hold it: raw tables of the fixed
    points z with that key, the shortest first}, from one walk of the ideal."""
    rs, n = d.system, len(d.system.positive_roots)
    key = _image_set(_ambient_indices(rs, d.p.levi), _set_type(rs))
    groups: dict = {}
    for t in _ideal_tables(rs, [d.w], delta_w(d)):
        groups.setdefault(key(t), []).append(t)
    for g in groups.values():
        if len(g) > 1:
            g.sort(key=lambda t: _table_length(t, n))
    return groups


def nash_fixed_points(d: SchubertDatum) -> frozenset[WeylElement]:
    """Torus-fixed points of the Nash blow-up: {z in W^Q : z <= w}, the union
    of the fibers."""
    rs, groups = d.system, _fixed_point_groups(d).values()
    return frozenset(_element(rs, t) for g in groups for t in g)


def nash_fibers(d: SchubertDatum) -> dict[WeylElement, frozenset[WeylElement]]:
    """{v: fiber over v} for every fixed point v of X_w^P, by coset key."""
    rs, groups = d.system, _fixed_point_groups(d).values()
    return {_element(rs, g[0]): frozenset(_element(rs, t) for t in g) for g in groups}


def nash_fiber(v: WeylElement, d: SchubertDatum) -> frozenset[WeylElement]:
    """Fixed points of the blow-up lying over the fixed point v of X_w^P.

    The entry of :func:`nash_fibers` at v, after checking that v is in W^P
    and below w.
    """
    if v.system is not d.system:
        raise ValueError("v belongs to a different root system")
    if not is_min_coset_rep(v, d.p):
        raise ValueError(f"{format_word(reduced_word(v))} is not in W^P")
    fibers = nash_fibers(d)
    if v not in fibers:
        raise ValueError(
            f"{format_word(reduced_word(v))} is not a fixed point of the variety"
        )
    return fibers[v]


def singular_fixed_points(d: SchubertDatum) -> frozenset[WeylElement]:
    """{v in W^P : v <= w, the Nash fiber over v has more than one point}."""
    groups = _fixed_point_groups(d).values()
    return frozenset(_element(d.system, g[0]) for g in groups if len(g) > 1)


def nash_report(d: SchubertDatum) -> dict:
    """JSON-ready summary with deterministic ordering."""
    fibers = nash_fibers(d)
    rows = []
    for v in sorted(fibers, key=lambda z: (z.length, reduced_word(z))):
        members = fibers[v]
        rows.append(
            {
                "v_word": list(reduced_word(v)),
                "fiber_words": sorted(
                    [list(reduced_word(z)) for z in members],
                    key=lambda wd: (len(wd), wd),
                ),
                "smooth": len(members) == 1,
            }
        )
    return {
        "delta_w": sorted(delta_w(d)),
        "Q_levi": sorted(nash_parabolic(d).levi),
        "fixed_point_count": sum(map(len, fibers.values())),
        "fibers": rows,
    }
