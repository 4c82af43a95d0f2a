"""Type-A specialization: permutations, coessential sets and Grassmannian data.

Permutations are 1-based one-line tuples.  The translation to Weyl elements
follows w(e_i - e_j) = e_{w(i)} - e_{w(j)}, with e_i - e_{i+1} = alpha_i.

The coessential set of w collects the rank conditions that cut out the
Schubert variety:

    Coess(w) = {(p, q) : w^{-1}(p) <= q < w^{-1}(p+1), w(q) <= p < w(q+1)}

with attached rank r = #{k <= q : w(k) <= p}.  A box is an inclusion box if
r = min(p, q); a permutation is covexillary if its boxes are simultaneously
sortable (no pair with p < p' and q > q').

For a Grassmannian permutation w with descent at k the module also computes
the partition, its inner corners, the corner-to-box dictionary for the
maximal representative, the coessential set of the Nash parabolic's maximal
representative in closed form, and the smoothness verdict for the Nash
blow-up.

>>> w = (2, 5, 7, 1, 3, 4, 6, 8)
>>> coessential_set(grassmannian_max_rep(w, 3)) == frozenset(
...     {CoessBox(2, 3, 1), CoessBox(5, 3, 2), CoessBox(7, 3, 3)})
True
>>> partition_of(w, 3)
(4, 3, 1)
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .rootsystem import InvariantViolation, RootSystem
from .weyl import WeylElement, _from_indices, _simple_indices

__all__ = [
    "Permutation",
    "CoessBox",
    "check_permutation",
    "perm_to_weyl",
    "weyl_to_perm",
    "descent_set",
    "is_grassmannian",
    "grassmannian_descent",
    "rank_number",
    "coessential_set",
    "partition_of",
    "inner_corners",
    "corner_boxes",
    "min_coset_rep_perm",
    "max_coset_rep_perm",
    "grassmannian_max_rep",
    "delta_w_perm",
    "coess_nash_formula",
    "defined_by_inclusions",
    "is_covexillary",
    "nash_blowup_smooth",
    "NashConfig",
    "config_description",
]

Permutation = tuple[int, ...]


class CoessBox(NamedTuple("CoessBox", [("p", int), ("q", int), ("r", int)])):
    """A coessential box (p, q) with its rank number r; ordered as (p, q, r)."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int) -> CoessBox:
        if not 1 <= r <= min(p, q):
            raise ValueError(f"rank {r} outside 1..min({p},{q})")
        return super().__new__(cls, p, q, r)

    @property
    def is_inclusion(self) -> bool:
        return self.r == min(self.p, self.q)


def check_permutation(p: Permutation) -> int:
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"{p} is not a permutation of 1..{n}")
    return n


def _inverse_perm(p: Permutation) -> Permutation:
    n = len(p)
    inv = [0] * n
    for i, v in enumerate(p, start=1):
        inv[v - 1] = i
    return tuple(inv)


def descent_set(p: Permutation) -> frozenset[int]:
    check_permutation(p)
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def is_grassmannian(p: Permutation, k: int) -> bool:
    """Identity, or unique descent exactly at position k."""
    ds = descent_set(p)
    return ds <= {k}


def grassmannian_descent(p: Permutation) -> int | None:
    ds = descent_set(p)
    if len(ds) > 1:
        return None
    return min(ds) if ds else 0   # 0 flags the identity


# -- Weyl bridge -------------------------------------------------------------


def perm_to_weyl(system: RootSystem, p: Permutation) -> WeylElement:
    """The element sending each root e_a - e_b to e_{p(a)} - e_{p(b)}."""
    n = check_permutation(p)
    if system.cartan_type.family != "A" or system.rank != n - 1:
        raise ValueError(
            f"need root system A{n - 1} for a permutation of 1..{n}, got "
            f"{system.cartan_type}"
        )
    index = _e_index(system)
    return _from_indices(
        system, (index[p[a - 1], p[b - 1]] for a, b in _e_pairs(system))
    )


@lru_cache(maxsize=None)
def _e_pairs(system: RootSystem) -> tuple[tuple[int, int], ...]:
    """(a, b) with ``system.roots[k] = e_a - e_b``, per root index k of A_n."""
    pairs = []
    for root in system.roots:
        # e-basis coefficients of sum_j c_j alpha_j are c_j - c_{j-1}
        prev = 0
        plus = minus = 0
        for j, c in enumerate(root + (0,), start=1):
            d = c - prev
            if d == 1:
                plus = j
            elif d == -1:
                minus = j
            prev = c
        pairs.append((plus, minus))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _e_index(system: RootSystem) -> dict[tuple[int, int], int]:
    """The root index k of e_a - e_b, keyed by (a, b): ``_e_pairs`` inverted."""
    return {pair: k for k, pair in enumerate(_e_pairs(system))}


def weyl_to_perm(w: WeylElement) -> Permutation:
    """Read the one-line form off w(alpha_i) = e_{w(i)} - e_{w(i+1)}."""
    rs = w.system
    if rs.cartan_type.family != "A":
        raise ValueError("only type A elements correspond to permutations")
    pairs, perm = _e_pairs(rs), w.perm
    out: list[int] = []
    for k in _simple_indices(rs):
        a, b = pairs[perm[k]]
        if not out:
            out.append(a)
        elif out[-1] != a:
            raise ValueError("inconsistent action matrix for a permutation")
        out.append(b)
    one_line = tuple(out)
    check_permutation(one_line)
    return one_line


# -- coessential data --------------------------------------------------------


def rank_number(p: Permutation, i: int, q: int) -> int:
    """#{k <= q : p(k) <= i}."""
    return sum(1 for k in range(1, q + 1) if p[k - 1] <= i)


def coessential_set(p: Permutation) -> frozenset[CoessBox]:
    n = check_permutation(p)
    inv = _inverse_perm(p)
    boxes = []
    for q in range(1, n):  # p(q) <= pp < p(q+1) asks for an ascent at q
        for pp in range(p[q - 1], p[q]):
            if inv[pp - 1] <= q < inv[pp]:
                boxes.append(CoessBox(pp, q, rank_number(p, pp, q)))
    return frozenset(boxes)


def partition_of(p: Permutation, k: int) -> tuple[int, ...]:
    """The partition of a Grassmannian permutation: lambda_{k-i+1} = w(i) - i."""
    n = check_permutation(p)
    if not 1 <= k <= n - 1:
        raise ValueError(f"descent position {k} out of range 1..{n - 1}")
    if not is_grassmannian(p, k):
        raise ValueError(f"{p} is not Grassmannian with descent at {k}")
    lam = tuple(p[i - 1] - i for i in range(k, 0, -1))
    if any(a < b for a, b in zip(lam, lam[1:])) or any(a < 0 for a in lam):
        raise ValueError(f"{p} gave a non-partition {lam}")
    return lam


def inner_corners(lam: tuple[int, ...], k: int, n: int) -> frozenset[int]:
    """{c in 1..k-1 : lambda_c > lambda_{c+1}}, plus 0 when lambda_1 < n - k."""
    if len(lam) != k:
        raise ValueError(f"partition {lam} must have exactly {k} parts")
    corners = {c for c in range(1, k) if lam[c - 1] > lam[c]}
    if lam[0] < n - k:
        corners.add(0)
    return frozenset(corners)


def corner_boxes(lam: tuple[int, ...], k: int, n: int) -> frozenset[CoessBox]:
    """Corner dictionary: corner c gives box (k - c + lambda_{c+1}, k), rank k - c."""
    ext = tuple(lam) + (0,)
    return frozenset(
        CoessBox(k - c + ext[c], k, k - c) for c in inner_corners(lam, k, n)
    )


# -- coset representatives on one-line forms ---------------------------------


def _blocks(n: int, levi: frozenset[int]) -> list[list[int]]:
    """Consecutive position blocks glued by the levi: i in levi joins i, i+1."""
    blocks: list[list[int]] = [[1]]
    for i in range(2, n + 1):
        if (i - 1) in levi:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def _block_sort(p: Permutation, levi: frozenset[int], reverse: bool) -> Permutation:
    """Sort the values of p inside each levi block, ascending or descending."""
    n = check_permutation(p)
    out = list(p)
    for block in _blocks(n, levi):
        lo, hi = block[0] - 1, block[-1]
        out[lo:hi] = sorted(out[lo:hi], reverse=reverse)
    return tuple(out)


def min_coset_rep_perm(p: Permutation, levi: frozenset[int]) -> Permutation:
    return _block_sort(p, levi, reverse=False)


def max_coset_rep_perm(p: Permutation, levi: frozenset[int]) -> Permutation:
    return _block_sort(p, levi, reverse=True)


def grassmannian_max_rep(p: Permutation, k: int) -> Permutation:
    """v_P(w): the maximal representative of w W_P for the Grassmannian levi."""
    n = check_permutation(p)
    levi = frozenset(range(1, n)) - {k}
    return max_coset_rep_perm(p, levi)


def delta_w_perm(p: Permutation, k: int) -> frozenset[int]:
    """{j != k : w(j+1) = w(j) + 1}, the Nash parabolic's Levi in type A."""
    n = check_permutation(p)
    return frozenset(
        j for j in range(1, n) if j != k and p[j] == p[j - 1] + 1
    )


def coess_nash_formula(p: Permutation, k: int) -> frozenset[CoessBox]:
    """Closed form for Coess of the Nash parabolic's maximal representative.

    For a non-identity Grassmannian permutation w with descent at k:

        A = {(i, w^{-1}(i))       : w^{-1}(i) < k < w^{-1}(i+1)}   rank q
        B = {(i, w^{-1}(i+1) - 1) : w^{-1}(i) < k+1 < w^{-1}(i+1)} rank p
    """
    n = check_permutation(p)
    if p == tuple(range(1, n + 1)):
        raise ValueError("the identity has no Nash coessential data")
    if not is_grassmannian(p, k) or k not in descent_set(p):
        raise ValueError(f"{p} is not Grassmannian with descent at {k}")
    inv = _inverse_perm(p)
    boxes = []
    for i in range(1, n):
        if inv[i - 1] < k < inv[i]:
            boxes.append(CoessBox(i, inv[i - 1], inv[i - 1]))
        if inv[i - 1] < k + 1 < inv[i]:
            boxes.append(CoessBox(i, inv[i] - 1, i))
    return frozenset(boxes)


# -- smoothness --------------------------------------------------------------


def defined_by_inclusions(p: Permutation) -> bool:
    """Every coessential rank condition is an inclusion condition."""
    return all(b.is_inclusion for b in coessential_set(p))


def is_covexillary(p: Permutation) -> bool:
    """Boxes are simultaneously sortable: never p < p' together with q > q'."""
    return _sortable(coessential_set(p))


def _sortable(boxes: frozenset[CoessBox]) -> bool:
    return not any(b1.p < b2.p and b1.q > b2.q for b1 in boxes for b2 in boxes)


def nash_blowup_smooth(p: Permutation, k: int) -> bool:
    """Whether the Nash blow-up of the Grassmannian Schubert variety is smooth.

    Two routes are compared: at most one non-inclusion box in Coess(v_P(w)),
    and covexillarity of the Nash parabolic's maximal representative (the
    latter is the smoothness test for varieties defined by inclusions).
    """
    n = check_permutation(p)
    if not is_grassmannian(p, k):
        raise ValueError(f"{p} is not Grassmannian with descent at {k}")
    vp = grassmannian_max_rep(p, k)
    non_incl = [b for b in coessential_set(vp) if not b.is_inclusion]
    by_count = len(non_incl) <= 1
    levi_q = delta_w_perm(p, k)
    vq = max_coset_rep_perm(p, levi_q)
    if not defined_by_inclusions(vq):
        raise ValueError(f"Nash representative of {p} not defined by inclusions")
    by_covex = is_covexillary(vq)
    if by_count != by_covex:
        raise ValueError(
            f"smoothness routes disagree for {p}: boxes say {by_count}, "
            f"covexillarity says {by_covex}"
        )
    return by_count


# -- configuration-space description ----------------------------------------


class NashConfig(NamedTuple):
    """The flag-variety model of the Nash blow-up of a Grassmannian variety."""

    n: int
    k: int
    flag_steps: tuple[int, ...]
    # one (f_low, e_mid, f_high) triple per box column: F_low <= E_mid <= F_high
    conditions: tuple[tuple[int, int, int], ...]
    top_degenerate: bool  # w(k) < n: the last lower condition is forced
    bottom_degenerate: bool  # w(k+1) > 1: the first column pins E to the flag

    def condition_strings(self) -> list[str]:
        return [
            f"F_{lo} <= E_{mid} <= F_{hi}" for lo, mid, hi in self.conditions
        ]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "flag_steps": list(self.flag_steps),
            "conditions": [list(c) for c in self.conditions],
            "conditions_pretty": self.condition_strings(),
            "top_degenerate": self.top_degenerate,
            "bottom_degenerate": self.bottom_degenerate,
        }


def config_description(p: Permutation, k: int) -> NashConfig:
    """Flag steps and chain conditions describing the Nash blow-up."""
    n = check_permutation(p)
    if p == tuple(range(1, n + 1)):
        raise ValueError("the identity has no Nash configuration data")
    if not is_grassmannian(p, k) or k not in descent_set(p):
        raise ValueError(f"{p} is not Grassmannian with descent at {k}")
    vp = grassmannian_max_rep(p, k)
    cols = sorted(coessential_set(vp), key=lambda b: b.r)
    if any(b.q != k for b in cols):
        raise InvariantViolation(f"coessential box of {vp} off column {k}")
    conditions = tuple((b.r, b.p, k + b.p - b.r) for b in cols)
    steps = sorted({k} | {c[0] for c in conditions} | {c[2] for c in conditions})
    return NashConfig(
        n=n,
        k=k,
        flag_steps=tuple(steps),
        conditions=conditions,
        top_degenerate=p[k - 1] < n,
        bottom_degenerate=p[k] > 1,
    )
