"""Weyl group elements, Bruhat order and parabolic coset representatives.

An element w is stored as the permutation it induces on the finite root set
(the representation of CHEVIE and of Casselman's "Machine calculations in
Weyl groups"): ``perm[i]`` is the index in ``system.roots`` of
``w(system.roots[i])``.  Length, descents and the action on a root are table
lookups, and a product is one ``bytes.translate``.  Tables are ``bytes`` (a
sixth of a tuple's memory) up to 256 roots, tuples composed by ``map`` above;
an element hashes as the tuple, which, unlike bytes, ignores PYTHONHASHSEED.
Elements are interned per root system.  The walks below (ideals, descent
chains, words) compose the raw tables themselves, through simple-reflection
tables built once per system, and intern only what they return.

Ideals {v in W^P : v <= w} grow from the identity along a reduced word of w
by Deodhar's lifting property, one simple reflection per member and letter,
never listing W.

Conventions: all products compose as functions, so from_word([1, 3, 2]) is
s_1 s_3 s_2 and sends x to s_1(s_3(s_2(x))).  "Minimal coset representative"
always refers to right cosets w W_P.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, NamedTuple

from .rootsystem import InvariantViolation, Root, RootSystem

__all__ = [
    "WeylElement",
    "ParabolicSubset",
    "parabolic",
    "identity",
    "simple_reflection",
    "from_word",
    "multiply",
    "inverse",
    "reduced_word",
    "format_word",
    "right_descents",
    "left_inversions",
    "bruhat_leq",
    "lower_interval",
    "interval_min_reps",
    "is_min_coset_rep",
    "min_coset_rep",
    "max_coset_rep",
    "reflection_from_root",
    "longest_element",
]

class WeylElement:
    """A Weyl group element as a permutation of the root set.

    ``perm[i]`` is the index in ``system.roots`` of ``w(system.roots[i])``.
    Calling the element applies it to a root; any other vector raises
    ``ValueError``.
    """

    __slots__ = ("system", "perm", "_hash", "_length", "_word")

    def __init__(self, system: RootSystem, perm: bytes | tuple[int, ...]) -> None:
        self.system = system
        self.perm = perm
        self._hash = hash(tuple(perm))
        self._length: int | None = None
        self._word: tuple[int, ...] | None = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.system is other.system
            and self.perm == other.perm
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<{format_word(reduced_word(self))} in {self.system.cartan_type}>"

    @property
    def length(self) -> int:
        """The number of positive roots sent to negative ones."""
        if self._length is None:
            self._length = _table_length(self.perm, len(self.system.positive_roots))
        return self._length

    def __call__(self, root: Root) -> Root:
        rs = self.system
        i = rs.index.get(root)
        if i is None:
            raise ValueError(f"{root} is not a root of {rs.cartan_type}")
        return rs.roots[self.perm[i]]

    def column(self, j: int) -> Root:
        """Image of alpha_j (1-based)."""
        rs = self.system
        return rs.roots[self.perm[_simple_indices(rs)[j - 1]]]


class ParabolicSubset(NamedTuple):
    """A standard parabolic, named by the simple indices inside its Levi.

    A record: immutable, equal to and hashed as its field tuple ``(levi,)``."""

    levi: frozenset[int]


def parabolic(*indices: int) -> ParabolicSubset:
    return ParabolicSubset(frozenset(indices))


def _check_levi(system: RootSystem, p: ParabolicSubset) -> None:
    bad = [i for i in p.levi if not 1 <= i <= system.rank]
    if bad:
        raise ValueError(f"levi indices {sorted(bad)} out of range 1..{system.rank}")


# bytes.translate wants a 256-entry table; tables are padded by the identity,
# so padded tables compose to padded tables
_IDENTITY = bytes(range(256))


def _padded(perm: bytes | tuple[int, ...]) -> bytes | tuple[int, ...]:
    """A bytes table extended by the identity to 256 entries; tuples as they are."""
    return perm + _IDENTITY[len(perm) :] if type(perm) is bytes else perm


def _compose(outer, inner):
    """The raw table of outer after inner; a bytes ``outer`` must be padded.

    The composition that the walks share: words, descent chains and ideals.
    """
    if type(inner) is bytes:
        return inner.translate(outer)
    return tuple(map(outer.__getitem__, inner))


@lru_cache(maxsize=None)
def _element(system: RootSystem, perm: bytes | tuple[int, ...]) -> WeylElement:
    return WeylElement(system, perm)


@lru_cache(maxsize=None)
def _simple_indices(system: RootSystem) -> tuple[int, ...]:
    """Positions of alpha_1, ..., alpha_rank in system.roots."""
    return tuple(system.index[a] for a in system.simple_roots)


def _table_type(system: RootSystem) -> type:
    """The type of a system's root tables: bytes up to 256 roots, tuples above."""
    return bytes if len(system.roots) <= 256 else tuple


def _set_type(system: RootSystem) -> type:
    """Root index sets: ascending bytes beside bytes tables, else frozensets."""
    return bytes if _table_type(system) is bytes else frozenset


def _table_length(perm: bytes | tuple[int, ...], n: int) -> int:
    """The length of a raw table: the positive roots (the first n) it makes negative."""
    if type(perm) is bytes:
        return len(perm[:n].translate(None, _IDENTITY[:n]))
    return sum(1 for j in perm[:n] if j >= n)


def _from_indices(system: RootSystem, indices: Iterable[int]) -> WeylElement:
    """The element sending system.roots[i] to system.roots[the i-th index]."""
    return _element(system, _table_type(system)(indices))


def _from_images(system: RootSystem, images: Iterable[Root]) -> WeylElement:
    """The element sending system.roots[i] to the i-th image."""
    return _from_indices(system, (system.index[r] for r in images))


@lru_cache(maxsize=None)
def identity(system: RootSystem) -> WeylElement:
    e = _from_images(system, system.roots)
    e._length = 0
    e._word = ()
    return e


@lru_cache(maxsize=None)
def simple_reflection(system: RootSystem, i: int) -> WeylElement:
    """s_i, from the Cartan row: s_i(beta) = beta - (sum_j a[i][j] beta_j) alpha_i."""
    system.simple_root(i)  # ValueError outside 1..rank
    row = system.cartan_matrix[i - 1]
    images = []
    for beta in system.roots:
        c = sum(a * b for a, b in zip(row, beta))
        image = beta[: i - 1] + (beta[i - 1] - c,) + beta[i:]
        if not system.is_root(image):
            raise InvariantViolation(f"s{i} sent {beta} out of the root system")
        images.append(image)
    return _from_images(system, images)


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    """u v as functions: one ``bytes.translate`` of v's table through u's."""
    if u.system is not v.system:
        raise ValueError("cannot multiply elements of different root systems")
    if type(u.perm) is bytes:  # translate wants a 256-entry table
        return _element(u.system, v.perm.translate(u.perm.ljust(256, b"\0")))
    return _element(u.system, tuple(map(u.perm.__getitem__, v.perm)))


@lru_cache(maxsize=16)
def _simple_steps(system: RootSystem) -> tuple[tuple[int, int, bytes | tuple], ...]:
    """(i, position of alpha_i, padded table of s_i) for i = 1..rank."""
    return tuple(
        (i, k, _padded(simple_reflection(system, i).perm))
        for i, k in enumerate(_simple_indices(system), 1)
    )


@lru_cache(maxsize=16)
def _reflection_tables(system: RootSystem) -> tuple[bytes | tuple, ...]:
    """The padded table of r_beta for each positive root beta, by index."""
    return tuple(
        _padded(reflection_from_root(system, beta).perm)
        for beta in system.positive_roots
    )


def from_word(system: RootSystem, word: Iterable[int]) -> WeylElement:
    steps = _simple_steps(system)
    cur = _padded(identity(system).perm)
    for i in word:
        if not 1 <= i <= system.rank:
            system.simple_root(i)  # raises ValueError
        cur = _compose(cur, steps[i - 1][2])
    return _element(system, cur[: len(system.roots)])


def right_descents(w: WeylElement) -> frozenset[int]:
    """{i : w(alpha_i) is a negative root}."""
    n = len(w.system.positive_roots)
    perm = w.perm
    return frozenset(
        i for i, k in enumerate(_simple_indices(w.system), 1) if perm[k] >= n
    )


def _descend(
    system: RootSystem,
    perm: bytes | tuple[int, ...],
    levi: Iterable[int],
    down: bool,
    word: list[int] | None = None,
) -> bytes | tuple[int, ...]:
    """Right-multiply the raw table ``perm`` by s_i, i the least index of
    ``levi`` at which it has a descent (``down``) or an ascent (not ``down``),
    until there is none; the final table, ``perm`` itself if no step is taken.

    Each step moves the length by one, so a walk longer than the number of
    positive roots means a wrong product; it raises instead of looping.
    """
    n = len(system.positive_roots)
    steps = [step for step in _simple_steps(system) if step[0] in levi]
    cur = perm
    for _ in range(n + 1):
        for i, k, s in steps:
            if (cur[k] >= n) is down:
                break
        else:
            return cur if cur is perm else cur[: len(perm)]
        if word is not None:
            word.append(i)
        if cur is perm:  # the first step: pad once, the products stay padded
            cur = _padded(perm)
        cur = _compose(cur, s)
    raise InvariantViolation(
        f"descent walk in {system.cartan_type} exceeded the longest length"
    )


def _coset_rep(w: WeylElement, levi: frozenset[int], down: bool) -> WeylElement:
    """The minimal (``down``) or maximal representative of w W_levi."""
    perm = _descend(w.system, w.perm, levi, down)
    return w if perm is w.perm else _element(w.system, perm)


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Lexicographically greedy reduced word, cached on the element."""
    if w._word is None:
        rs = w.system
        word: list[int] = []
        _descend(rs, w.perm, range(1, rs.rank + 1), True, word)
        w._word = tuple(reversed(word))
    return w._word


def format_word(word: Iterable[int]) -> str:
    """'s1s3s2' style rendering; the identity prints as 'e'."""
    word = tuple(word)
    return "".join(f"s{i}" for i in word) if word else "e"


def inverse(w: WeylElement) -> WeylElement:
    perm = w.perm
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    return _element(w.system, type(perm)(inv))


@lru_cache(maxsize=4096)
def left_inversions(w: WeylElement) -> frozenset[Root]:
    """LInv(w) = w(R^-) intersected with R^+."""
    rs = w.system
    n = len(rs.positive_roots)
    return frozenset(rs.roots[j] for j in w.perm[n:] if j < n)


def is_min_coset_rep(w: WeylElement, p: ParabolicSubset) -> bool:
    _check_levi(w.system, p)
    return not (right_descents(w) & p.levi)


@lru_cache(maxsize=4096)
def min_coset_rep(w: WeylElement, p: ParabolicSubset) -> WeylElement:
    """The minimal length representative of w W_P."""
    _check_levi(w.system, p)
    return _coset_rep(w, p.levi, True)


def max_coset_rep(w: WeylElement, p: ParabolicSubset) -> WeylElement:
    """The maximal length representative of w W_P (= min rep times w_0 of W_P)."""
    _check_levi(w.system, p)
    return _coset_rep(w, p.levi, False)


@lru_cache(maxsize=None)
def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by the descent recursion: a reference for the tests and the
    benchmark's cache counters, called by no package code."""
    if v.system is not w.system:
        raise ValueError("Bruhat comparison across different root systems")
    if v.length == 0:
        return True
    if v.length > w.length:
        return False
    i = min(right_descents(w))
    s = simple_reflection(w.system, i)
    wsi = multiply(w, s)
    vsi = multiply(v, s)
    if vsi.length < v.length:
        return bruhat_leq(vsi, wsi)
    return bruhat_leq(v, wsi)


def _ideal_tables(system: RootSystem, tops: Iterable, levi: frozenset[int]) -> list:
    """The raw tables of the ideal of W^levi below ``tops``, which must lie
    in W^levi, the identity first.  By Deodhar's lifting property (Math. Z.
    153, 1977), if t = s t' > t' the ideal below t is the ideal below t' plus
    s x for each member x with s x in W^levi; so each ideal grows from the
    identity along its top's reduced word read from the right, and a top
    inside an earlier ideal is skipped."""
    n, steps = len(system.positive_roots), _simple_steps(system)
    # x is in W^levi iff it sends no simple root of the Levi below zero; the
    # extra index keeps the getter's result a tuple for a one-node Levi
    ks = [steps[i - 1][1] for i in levi]
    below = itemgetter(*ks, ks[0]) if ks else None
    found: dict = {}  # insertion-ordered sets of raw tables, here and below
    for top in sorted(tops, key=lambda v: v.length, reverse=True):
        if top.perm not in found:
            ideal = dict.fromkeys((identity(system).perm,))
            for i in reversed(reduced_word(top)):
                s = steps[i - 1][2]
                for x in list(ideal):
                    y = _compose(s, x)
                    if y not in ideal and (not ks or max(below(y)) < n):
                        ideal[y] = None
            found.update(ideal)
    return list(found)


@lru_cache(maxsize=64)
def _ideal(tops: frozenset[WeylElement], levi: frozenset[int]) -> frozenset:
    rs = next(iter(tops)).system
    return frozenset(_element(rs, y) for y in _ideal_tables(rs, tops, levi))


def lower_interval(w: WeylElement) -> frozenset[WeylElement]:
    """All v <= w: the ideal of :func:`interval_min_reps` with an empty Levi."""
    return _ideal(frozenset((w,)), frozenset())


def interval_min_reps(
    w: WeylElement, p: ParabolicSubset, max_length: int | None = None
) -> frozenset[WeylElement]:
    """{v in W^P : v <= w}, the ideal below w's minimal representative, which
    bounds the same ideal because projection to W^P keeps Bruhat order."""
    _check_levi(w.system, p)  # max_length is ignored, kept for old callers
    return _ideal(frozenset((min_coset_rep(w, p),)), p.levi)


@lru_cache(maxsize=None)
def reflection_from_root(system: RootSystem, alpha: Root) -> WeylElement:
    """The reflection r_alpha as a group element.

    Simple reflections come from the Cartan matrix.  r_{-alpha} is r_alpha,
    and for a positive non-simple alpha some s_i lowers its height, so
    r_alpha = s_i r_{s_i alpha} s_i.
    """
    k = system.index.get(alpha)
    if k is None:
        raise ValueError(f"{alpha} is not a root of {system.cartan_type}")
    n = len(system.positive_roots)
    if k >= n:  # system.roots lists -beta n places after beta
        return reflection_from_root(system, system.roots[k - n])
    if system.is_simple(alpha):
        return simple_reflection(system, alpha.index(1) + 1)
    for i in range(1, system.rank + 1):
        s = simple_reflection(system, i)
        lower = system.roots[s.perm[k]]
        if sum(lower) < sum(alpha):
            return multiply(multiply(s, reflection_from_root(system, lower)), s)
    raise InvariantViolation(f"no simple reflection lowers {alpha}")


def longest_element(system: RootSystem) -> WeylElement:
    return max_coset_rep(
        identity(system), ParabolicSubset(frozenset(range(1, system.rank + 1)))
    )
