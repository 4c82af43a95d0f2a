"""Finite root systems of types A, B, C, D, E6 and E7 in simple-root coordinates.

Every root is an integer coordinate vector over the simple roots, so all
arithmetic in this package is exact; no Euclidean embedding is ever used.
The Cartan matrix convention, relied on by every other module, is

    a[i][j] = <alpha_j, alpha_i^vee>

so the simple reflection s_i acts by s_i(alpha_j) = alpha_j - a[i][j] alpha_i.
Nodes are numbered 1..rank following Bourbaki:

    A_n   1 - 2 - ... - n
    B_n   1 - 2 - ... - (n-1) => n        (alpha_n short)
    C_n   1 - 2 - ... - (n-1) <= n        (alpha_n long)
    D_n   1 - ... - (n-2) - n-1           (fork at node n-2)
                  \\
                    n
    E_n           2
                  |
          1 - 3 - 4 - 5 - 6 [- 7]

Only families with a cominuscule node are supported; F4 and G2 are rejected
at construction time.

>>> rs = root_system("A", 3)
>>> len(rs.positive_roots)
6
>>> rs.highest_root
(1, 1, 1)
>>> sorted(rs.cominuscule_simples)
[1, 2, 3]
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

__all__ = [
    "Root",
    "CartanType",
    "RootSystem",
    "InvariantViolation",
    "build",
    "root_system",
    "format_root",
    "dynkin_diagram",
]

Root = tuple[int, ...]

_SUPPORTED = ("A", "B", "C", "D", "E")


class InvariantViolation(RuntimeError):
    """An internal mathematical invariant failed; this always indicates a bug."""


class CartanType(NamedTuple("CartanType", [("family", str), ("rank", int)])):
    """A Dynkin family letter and a rank, checked to have a cominuscule node."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> CartanType:
        if family in ("F", "G"):
            raise ValueError(
                f"type {family}{rank} has no cominuscule node and is not supported"
            )
        if family not in _SUPPORTED:
            raise ValueError(f"unknown family {family!r}; supported: A, B, C, D, E6, E7")
        lo = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6}[family]
        if rank < lo:
            raise ValueError(f"type {family} needs rank >= {lo}, got {rank}")
        if family == "E" and rank not in (6, 7):
            raise ValueError(f"type E supports rank 6 or 7 only, got {rank}")
        return super().__new__(cls, family, rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


# the default types of the cominuscule sweeps and verify --types (see sweeps)
DEFAULT_TYPES = tuple(
    CartanType(t[0], int(t[1])) for t in "A1 A2 A3 A4 A5 B2 B3 C2 C3 D4".split()
)


def _edges(ct: CartanType) -> list[tuple[int, int]]:
    """Dynkin diagram edges as 1-based node pairs (multiplicity ignored)."""
    n = ct.rank
    if ct.family in ("A", "B", "C"):
        return [(i, i + 1) for i in range(1, n)]
    if ct.family == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    chain = [(1, 3), (3, 4), (4, 5), (5, 6)] + ([(6, 7)] if n == 7 else [])
    return chain + [(2, 4)]


def _cartan_matrix(ct: CartanType) -> tuple[tuple[int, ...], ...]:
    n = ct.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in _edges(ct):
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    # The double edge: B_n has <alpha_{n-1}, alpha_n^vee> = -2, C_n the mirror.
    if ct.family == "B" and n >= 2:
        a[n - 1][n - 2] = -2
    if ct.family == "C" and n >= 2:
        a[n - 2][n - 1] = -2
    return tuple(tuple(row) for row in a)


def _count_formula(ct: CartanType) -> int:
    n = ct.rank
    if ct.family == "A":
        return n * (n + 1) // 2
    if ct.family in ("B", "C"):
        return n * n
    if ct.family == "D":
        return n * (n - 1)
    return {6: 36, 7: 63}[n]


def _generate_positives(cartan: tuple[tuple[int, ...], ...]) -> tuple[Root, ...]:
    """Positive roots, one height level at a time.

    Every positive root of height h + 1 is beta + alpha_i for some root beta
    of height h.  With p = max{k >= 0 : beta - k alpha_i is a root},
    beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0, and every root
    below beta is known once its level is reached, so only the newest level
    is extended.
    """
    rank = len(cartan)
    level = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    roots = set(level)
    while level:
        above = set()
        for beta in level:
            for i, row in enumerate(cartan):
                pair = sum(a * b for a, b in zip(row, beta))
                head, tail = beta[:i], beta[i + 1 :]
                p = 0
                while head + (beta[i] - p - 1,) + tail in roots:
                    p += 1
                if p - pair > 0:
                    above.add(head + (beta[i] + 1,) + tail)
        roots |= above
        level = above
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


class RootSystem:
    """Immutable root system data; build via :func:`build` or :func:`root_system`.

    Instances are interned per Cartan type, so identity comparison is safe.
    """

    def __init__(self, cartan_type: CartanType) -> None:
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.cartan_matrix = _cartan_matrix(cartan_type)
        self.simple_roots = tuple(
            tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)
        )
        self.positive_roots = _generate_positives(self.cartan_matrix)
        if len(self.positive_roots) != _count_formula(cartan_type):
            raise InvariantViolation(
                f"{cartan_type}: generated {len(self.positive_roots)} positive roots, "
                f"expected {_count_formula(cartan_type)}"
            )
        self.negative_roots = tuple(
            tuple(-c for c in r) for r in self.positive_roots
        )
        self.roots = self.positive_roots + self.negative_roots
        self.index = {r: i for i, r in enumerate(self.roots)}
        self._pos_set = frozenset(self.positive_roots)
        self._all_set = frozenset(self.roots)
        self.highest_root = self._find_highest()
        self.cominuscule_simples = frozenset(
            i + 1 for i, c in enumerate(self.highest_root) if c == 1
        )

    def _find_highest(self) -> Root:
        top = self.positive_roots[-1]  # of greatest height
        # dominating every positive root makes it the one maximal root
        if not all(all(t >= c for t, c in zip(top, r)) for r in self.positive_roots):
            raise InvariantViolation(f"{self.cartan_type}: highest root not unique")
        return top

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"

    # -- membership ---------------------------------------------------------

    def is_root(self, v: Root) -> bool:
        return v in self._all_set

    def simple_root(self, i: int) -> Root:
        """The simple root alpha_i, 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} out of range 1..{self.rank}")
        return self.simple_roots[i - 1]

    def is_simple(self, v: Root) -> bool:
        return sum(v) == 1 and v in self._pos_set

    def support(self, v: Root) -> frozenset[int]:
        """1-based indices of the nonzero coordinates."""
        return frozenset(i + 1 for i, c in enumerate(v) if c != 0)

    def in_levi(self, v: Root, levi: Iterable[int]) -> bool:
        """Whether the root lies in the subsystem spanned by the given simples."""
        return self.support(v) <= frozenset(levi)


@lru_cache(maxsize=None)
def build(cartan_type: CartanType) -> RootSystem:
    return RootSystem(cartan_type)


def root_system(family: str, rank: int) -> RootSystem:
    return build(CartanType(family, rank))


def format_root(v: Root) -> str:
    """ASCII rendering, e.g. (1, 2, 0) -> 'a1+2a2' and its negative '-(a1+2a2)'.

    >>> format_root((1, 1, 1))
    'a1+a2+a3'
    >>> format_root((0, -1, -2))
    '-(a2+2a3)'
    """
    if all(c == 0 for c in v):
        return "0"
    neg = all(c <= 0 for c in v)
    coords = [-c for c in v] if neg else list(v)
    if any(c < 0 for c in coords):
        raise ValueError(f"{v} is not a signed nonnegative combination")
    parts = []
    for i, c in enumerate(coords, start=1):
        if c == 1:
            parts.append(f"a{i}")
        elif c > 1:
            parts.append(f"{c}a{i}")
    body = "+".join(parts)
    if neg:
        return f"-({body})" if len(parts) > 1 else f"-{body}"
    return body


def dynkin_diagram(ct: CartanType) -> str:
    """ASCII Dynkin diagram with Bourbaki node numbering."""
    n = ct.rank
    if ct.family == "A":
        return " - ".join(str(i) for i in range(1, n + 1))
    if ct.family == "B":
        chain = " - ".join(str(i) for i in range(1, n))
        return f"{chain} => {n}   ({n} short)"
    if ct.family == "C":
        chain = " - ".join(str(i) for i in range(1, n))
        return f"{chain} <= {n}   ({n} long)"
    if ct.family == "D":
        chain = " - ".join(str(i) for i in range(1, n - 1))
        pad = " " * len(chain)
        return f"{chain} - {n - 1}\n{pad} \\\n{pad}  {n}"
    chain = " - ".join(str(i) for i in [1, 3, 4, 5, 6, 7][: n - 1])
    offset = " " * len("1 - 3 - ")
    return f"{offset}2\n{offset}|\n{chain}"
