"""Weyl group elements, Bruhat order and parabolic coset representatives.

An element w is stored as the permutation it induces on the finite root set
(the representation of CHEVIE and of Casselman's "Machine calculations in
Weyl groups"): ``perm[i]`` is the index in ``system.roots`` of
``w(system.roots[i])``.  Length, descents and the action on a root are table
lookups, and a product is one ``bytes.translate``.  Tables are ``bytes`` (a
sixth of a tuple's memory) up to 256 roots, tuples composed by ``map`` above;
an element hashes as the tuple, which, unlike bytes, ignores PYTHONHASHSEED.
Elements are interned per root system, so repeated products hit caches.

Ideals {v in W^P : v <= w} are walked down from w by reflections inside W^P
(Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.5), never listing W.

Conventions: all products compose as functions, so from_word([1, 3, 2]) is
s_1 s_3 s_2 and sends x to s_1(s_3(s_2(x))).  "Minimal coset representative"
always refers to right cosets w W_P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

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
            n = len(self.system.positive_roots)
            self._length = sum(1 for j in self.perm[:n] if j >= n)
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


@dataclass(frozen=True)
class ParabolicSubset:
    """A standard parabolic, named by the simple indices inside its Levi."""

    levi: frozenset[int]

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in sorted(self.levi)) + "}"


def parabolic(*indices: int) -> ParabolicSubset:
    return ParabolicSubset(frozenset(indices))


def _check_levi(system: RootSystem, p: ParabolicSubset) -> None:
    bad = [i for i in p.levi if not 1 <= i <= system.rank]
    if bad:
        raise ValueError(f"levi indices {sorted(bad)} out of range 1..{system.rank}")


@lru_cache(maxsize=None)
def _element(system: RootSystem, perm: bytes | tuple[int, ...]) -> WeylElement:
    return WeylElement(system, perm)


@lru_cache(maxsize=None)
def _simple_indices(system: RootSystem) -> tuple[int, ...]:
    """Positions of alpha_1, ..., alpha_rank in system.roots."""
    return tuple(system.index[a] for a in system.simple_roots)


def _from_indices(system: RootSystem, indices: Iterable[int]) -> WeylElement:
    """The element sending system.roots[i] to system.roots[the i-th index]."""
    pack = bytes if len(system.roots) <= 256 else tuple
    return _element(system, pack(indices))


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


@lru_cache(maxsize=None)
def _right_mult(w: WeylElement, i: int) -> WeylElement:
    return multiply(w, simple_reflection(w.system, i))


def from_word(system: RootSystem, word: Iterable[int]) -> WeylElement:
    w = identity(system)
    for i in word:
        w = _right_mult(w, i)
    return w


def right_descents(w: WeylElement) -> frozenset[int]:
    """{i : w(alpha_i) is a negative root}."""
    n = len(w.system.positive_roots)
    perm = w.perm
    return frozenset(
        i for i, k in enumerate(_simple_indices(w.system), 1) if perm[k] >= n
    )


def _walk(w: WeylElement, steps, word: list[int] | None = None) -> WeylElement:
    """Right-multiply by s_i, i = min(steps(cur)), until steps(cur) is empty.

    Each step moves the length by one, so a walk longer than the number of
    positive roots means a wrong product; it raises instead of looping.
    """
    cur = w
    for _ in range(len(w.system.positive_roots) + 1):
        ix = steps(cur)
        if not ix:
            return cur
        i = min(ix)
        if word is not None:
            word.append(i)
        cur = _right_mult(cur, i)
    raise InvariantViolation(
        f"descent walk in {w.system.cartan_type} exceeded the longest length"
    )


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Lexicographically greedy reduced word, cached on the element."""
    if w._word is None:
        word: list[int] = []
        _walk(w, right_descents, word)
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


@lru_cache(maxsize=None)
def left_inversions(w: WeylElement) -> frozenset[Root]:
    """LInv(w) = w(R^-) intersected with R^+."""
    rs = w.system
    n = len(rs.positive_roots)
    return frozenset(rs.roots[j] for j in w.perm[n:] if j < n)


def is_min_coset_rep(w: WeylElement, p: ParabolicSubset) -> bool:
    _check_levi(w.system, p)
    return not (right_descents(w) & p.levi)


@lru_cache(maxsize=None)
def min_coset_rep(w: WeylElement, p: ParabolicSubset) -> WeylElement:
    """The minimal length representative of w W_P."""
    _check_levi(w.system, p)
    return _walk(w, lambda cur: right_descents(cur) & p.levi)


def max_coset_rep(w: WeylElement, p: ParabolicSubset) -> WeylElement:
    """The maximal length representative of w W_P (= min rep times w_0 of W_P)."""
    _check_levi(w.system, p)
    return _walk(w, lambda cur: p.levi - right_descents(cur))


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
    wsi = _right_mult(w, i)
    vsi = _right_mult(v, i)
    if vsi.length < v.length:
        return bruhat_leq(vsi, wsi)
    return bruhat_leq(v, wsi)


@lru_cache(maxsize=64)
def _ideal(
    tops: frozenset[WeylElement], levi: frozenset[int]
) -> frozenset[WeylElement]:
    # y = r_gamma v < v for each left inversion gamma of v, so every such y in
    # W^P lies in the ideal; the covers of v in W^P are among them, and
    # intervals of W^P are graded (Deodhar, Math. Z. 153, 1977), so the walk
    # reaches all of it
    found = list(tops)
    rs = found[0].system
    n = len(rs.positive_roots)
    simples = _simple_indices(rs)
    levi_idx = [simples[i - 1] for i in levi]
    seen = set(found)
    for v in found:  # grows while it is read: a breadth-first walk
        for j in v.perm[n:]:
            if j >= n:  # v sends this negative root to a negative one
                continue
            y = multiply(reflection_from_root(rs, rs.roots[j]), v)
            if y not in seen and all(y.perm[k] < n for k in levi_idx):
                seen.add(y)
                found.append(y)
    return frozenset(found)


def lower_interval(w: WeylElement) -> frozenset[WeylElement]:
    """All v <= w: the walk of :func:`interval_min_reps` with an empty Levi."""
    return _ideal(frozenset((w,)), frozenset())


def interval_min_reps(
    w: WeylElement, p: ParabolicSubset, max_length: int | None = None
) -> frozenset[WeylElement]:
    """{v in W^P : v <= w}, walked down from w's minimal representative, which
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
