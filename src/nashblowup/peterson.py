"""Combinatorial Peterson translation of tangent-space weight sets.

A state is a pair (z, M) with z a minimal coset representative and M a set
of weights inside the ambient set z(R^- minus R_L^-).  Translating along a
left inversion gamma of z packs every gamma-string of M towards its
gamma-minimal element (sigma), applies r_gamma, and projects z back to W^P:

    tau_gamma(z, M) = (min rep of r_gamma z,  r_gamma(sigma_gamma(M))).

Weight sets, ambient sets included, are int bitmasks over the indices of
``system.roots``: bit i stands for ``system.roots[i]``.  Containment is
``m & ~ambient == 0``, and r_gamma maps each set bit through the
reflection's root permutation (Casselman's tables for Weyl elements,
applied one layer up).  Root tuples appear only when a state is rendered.

Root strings are unbroken, so the gamma-strings of a root system are
tabulated once per (system, gamma) as masks with their indices bottom
first, and sigma takes the first c indices of a string from its lowest
ambient member.  Iterating from
(w, LInv(w)) until no further translation applies produces the translation
graph whose sinks are eventual translates.  For cominuscule P every string
meets the ambient set at most once, so sigma is the identity and the states
biject with the fixed points of the Nash blow-up; the map witnessing the
bijection is :func:`theorem2_map` and the check is :func:`verify_theorem2`.

Singularity detection: a fixed point u of X_w^P is singular iff some v >= u
carries two distinct eventual translates (v, N) != (v, N'); see
:func:`ck_singular_points`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .rootsystem import InvariantViolation, Root, RootSystem, format_root
from . import nashcore
from .weyl import (
    ParabolicSubset,
    WeylElement,
    bruhat_leq,
    format_word,
    interval_min_reps,
    is_min_coset_rep,
    left_inversions,
    min_coset_rep,
    multiply,
    reduced_word,
    reflection_from_root,
    _check_levi,
)

__all__ = [
    "PetersonState",
    "TranslationGraph",
    "weight_mask",
    "mask_roots",
    "ambient_weights",
    "sigma_shift",
    "tau",
    "eventual_translates",
    "theorem2_map",
    "verify_theorem2",
    "Theorem2Report",
    "ck_singular_points",
    "reflection_label",
    "graph_to_dot",
    "graph_to_json",
    "fixed_point_table",
]


def weight_mask(system: RootSystem, roots: Iterable[Root]) -> int:
    """The bitmask of a set of roots: bit i stands for ``system.roots[i]``."""
    index = system.index
    m = 0
    for r in roots:
        m |= 1 << index[r]
    return m


def mask_roots(system: RootSystem, mask: int) -> frozenset[Root]:
    """The roots whose bits are set in ``mask``; the inverse of :func:`weight_mask`."""
    roots = system.roots
    out = []
    while mask:
        low = mask & -mask
        out.append(roots[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


class PetersonState:
    """An immutable (z, M) pair with a precomputed hash.

    ``mask`` holds M as a bitmask over ``z.system.roots``; ``weights`` is
    the same set as root tuples, for rendering.
    """

    __slots__ = ("z", "mask", "_hash")

    def __init__(self, z: WeylElement, mask: int) -> None:
        self.z = z
        self.mask = mask
        self._hash = hash((z, mask))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PetersonState)
            and self.z == other.z
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def weights(self) -> frozenset[Root]:
        return mask_roots(self.z.system, self.mask)

    def __repr__(self) -> str:
        ws = ", ".join(format_root(r) for r in sorted(self.weights))
        return f"({format_word(reduced_word(self.z))}, {{{ws}}})"


@dataclass(frozen=True)
class TranslationGraph:
    """Translation states in BFS discovery order, with labeled edges."""

    root: PetersonState
    nodes: tuple[PetersonState, ...]
    edges: tuple[tuple[PetersonState, Root, PetersonState], ...]


@lru_cache(maxsize=None)
def _ambient_indices(system: RootSystem, levi: frozenset[int]) -> tuple[int, ...]:
    """Indices of R^- minus R_L^- in ``system.roots``."""
    return tuple(
        system.index[b] for b in system.negative_roots if not system.in_levi(b, levi)
    )


@lru_cache(maxsize=None)
def ambient_weights(z: WeylElement, p: ParabolicSubset) -> int:
    """z(R^- minus R_L^-) as a mask: the ambient set that carries every M."""
    rs = z.system
    _check_levi(rs, p)
    perm = z.perm
    m = 0
    for i in _ambient_indices(rs, p.levi):
        m |= 1 << perm[i]
    return m


@lru_cache(maxsize=None)
def _gamma_strings(
    system: RootSystem, gamma: Root
) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """(multi, strings), one table per (system, gamma).

    ``strings[i]`` is the gamma-string through ``system.roots[i]``: its mask
    and its root indices, bottom first.  ``multi`` is the union of the
    strings of two or more roots.  Root strings are unbroken: each string is
    walked along beta + gamma through ``system.index`` from its one root
    with no predecessor.  gamma and -gamma lie in different strings, since 0
    is not a root; no ambient set contains both.
    """
    if not system.is_root(gamma):
        raise ValueError(f"{gamma} is not a root")
    index, roots = system.index, system.roots
    up: dict[int, int] = {}
    for i, beta in enumerate(roots):
        j = index.get(tuple(b + g for b, g in zip(beta, gamma)))
        if j is not None:
            up[i] = j
    above = set(up.values())
    strings: list = [None] * len(roots)
    multi = 0
    for i in range(len(roots)):
        if i in above:
            continue  # not the bottom of its string
        ix = [i]
        while ix[-1] in up:
            ix.append(up[ix[-1]])
        entry = (sum(1 << j for j in ix), tuple(ix))
        for j in ix:
            strings[j] = entry
        if len(ix) > 1:
            multi |= entry[0]
    return multi, tuple(strings)


def sigma_shift(z: WeylElement, p: ParabolicSubset, m: int, alpha: Root) -> int:
    """Pack each alpha-string of M into the positions nearest its minimal element.

    M and the result are masks.  The minimal element mu of a string is its
    ambient member with mu - alpha outside the ambient set; it must be
    unique, and this is re-verified on every string of M that is ambient in
    part and holds two or more ambient roots (on a wholly ambient string mu
    is the bottom).  c weights of M on the string become
    {mu, mu + alpha, ..., mu + (c-1) alpha}, so full blocks and strings with
    one ambient member are left unchanged.
    """
    ambient = ambient_weights(z, p)
    if m & ~ambient:
        raise ValueError("weight set must live inside the ambient set of z")
    multi, strings = _gamma_strings(z.system, alpha)
    out = m
    todo = m & multi
    while todo:
        smask, ix = strings[(todo & -todo).bit_length() - 1]
        todo &= ~smask
        inside = ambient & smask
        if not inside & (inside - 1):
            continue  # one ambient root on the string, and M holds it
        if inside == smask:
            b = 0  # the whole string is ambient: its bottom is the one minimum
        else:
            bottoms = [
                k
                for k, i in enumerate(ix)
                if inside >> i & 1 and not (k and inside >> ix[k - 1] & 1)
            ]
            if len(bottoms) != 1:
                roots = z.system.roots
                raise InvariantViolation(
                    f"alpha-minimal element not unique in {[roots[i] for i in ix]} "
                    f"along {alpha}"
                )
            b = bottoms[0]
        packed = 0
        for i in ix[b : b + (m & smask).bit_count()]:
            packed |= 1 << i
        out = out & ~smask | packed
    if out.bit_count() != m.bit_count():
        raise InvariantViolation("sigma changed the cardinality of the weight set")
    return out


def tau(state: PetersonState, gamma: Root, p: ParabolicSubset) -> PetersonState:
    """One translation step along a left inversion gamma of z."""
    z = state.z
    if gamma not in left_inversions(z):
        raise ValueError(
            f"{format_root(gamma)} is not a left inversion of "
            f"{format_word(reduced_word(z))}"
        )
    refl = reflection_from_root(z.system, gamma)
    shifted = sigma_shift(z, p, state.mask, gamma)
    perm = refl.perm
    new = 0
    while shifted:
        low = shifted & -shifted
        new |= 1 << perm[low.bit_length() - 1]
        shifted ^= low
    new_z = min_coset_rep(multiply(refl, z), p)
    if new & ~ambient_weights(new_z, p):
        raise InvariantViolation("translated weights left the ambient set")
    return PetersonState(new_z, new)


@lru_cache(maxsize=1)
def eventual_translates(w: WeylElement, p: ParabolicSubset) -> TranslationGraph:
    """Breadth-first closure of translation from (w, LInv(w)).

    Deterministic: neighbors are explored in lexicographic order of gamma.
    Edge targets always have strictly smaller length, so the graph is acyclic.
    The last graph built is memoised (one entry), so checks of one datum made
    in a row share it; the graph and its states are immutable, so sharing is
    safe.
    """
    rs = w.system
    _check_levi(rs, p)
    if not min_coset_rep(w, p) == w:
        raise ValueError(
            f"{format_word(reduced_word(w))} is not a minimal coset representative"
        )
    start = PetersonState(w, weight_mask(rs, left_inversions(w)))
    nodes: list[PetersonState] = [start]
    seen: set[PetersonState] = {start}
    edges: list[tuple[PetersonState, Root, PetersonState]] = []
    queue: deque[PetersonState] = deque([start])
    while queue:
        st = queue.popleft()
        for gamma in sorted(left_inversions(st.z)):
            nxt = tau(st, gamma, p)
            if nxt.z.length >= st.z.length:
                raise InvariantViolation("translation failed to decrease length")
            edges.append((st, gamma, nxt))
            if nxt not in seen:
                seen.add(nxt)
                nodes.append(nxt)
                queue.append(nxt)
    return TranslationGraph(root=start, nodes=tuple(nodes), edges=tuple(edges))


@lru_cache(maxsize=None)
def _tangent_indices(d: nashcore.SchubertDatum) -> tuple[int, ...]:
    """E = w^{-1}(LInv(w)) as indices in ``d.system.roots``."""
    index = d.system.index
    return tuple(index[r] for r in nashcore.tangent_roots(d))


def theorem2_map(z: WeylElement, d: nashcore.SchubertDatum) -> PetersonState:
    """The closed form of the eventual translate at the fixed point z.

    Sends z in W^Q with z <= w to (min rep of z W_P, z(E)) where
    E = w^{-1}(LInv(w)).
    """
    if z.system is not d.system:
        raise ValueError("z belongs to a different root system")
    q = nashcore.nash_parabolic(d)
    if not is_min_coset_rep(z, q):
        raise ValueError(f"{format_word(reduced_word(z))} is not in W^Q")
    if not bruhat_leq(z, d.w):
        raise ValueError(f"{format_word(reduced_word(z))} is not below w")
    perm = z.perm
    m = 0
    for i in _tangent_indices(d):
        m |= 1 << perm[i]
    return PetersonState(min_coset_rep(z, d.p), m)


@dataclass(frozen=True)
class Theorem2Report:
    """Outcome of comparing the closed-form map with the translation graph."""

    ok: bool
    fixed_point_count: int
    state_count: int
    missing: tuple[PetersonState, ...]  # translates never hit by the map
    extra: tuple[PetersonState, ...]  # images that are not eventual translates
    collisions: tuple[tuple[PetersonState, int], ...]  # non-injective images


def verify_theorem2(d: nashcore.SchubertDatum) -> Theorem2Report:
    """Check that z -> (min rep, z(E)) is a bijection onto the translate states."""
    fixed = nashcore.nash_fixed_points(d)
    graph = eventual_translates(d.w, d.p)
    images = Counter(theorem2_map(z, d) for z in fixed)
    states = set(graph.nodes)
    missing = tuple(sorted(states - set(images), key=_state_sort_key))
    extra = tuple(sorted(set(images) - states, key=_state_sort_key))
    collisions = tuple(
        (s, c) for s, c in sorted(images.items(), key=lambda t: _state_sort_key(t[0])) if c > 1
    )
    ok = not missing and not extra and not collisions
    return Theorem2Report(
        ok=ok,
        fixed_point_count=len(fixed),
        state_count=len(states),
        missing=missing,
        extra=extra,
        collisions=collisions,
    )


def _state_sort_key(s: PetersonState):
    return (s.z.length, reduced_word(s.z), sorted(s.weights))


def ck_singular_points(w: WeylElement, p: ParabolicSubset) -> frozenset[WeylElement]:
    """Fixed points of X_w^P that are singular, by the translate-multiplicity test.

    u is singular iff some v >= u carries at least two distinct eventual
    translates (v, N) != (v, N').
    """
    graph = eventual_translates(w, p)
    per_z = Counter(s.z for s in graph.nodes)
    multi = [z for z, c in per_z.items() if c > 1]
    return frozenset(
        u
        for u in interval_min_reps(w, p)
        if any(bruhat_leq(u, v) for v in multi)
    )


# -- rendering ---------------------------------------------------------------


def reflection_label(system: RootSystem, gamma: Root) -> str:
    """'r_1' for a simple support, 'r_{1,2,3}' otherwise."""
    supp = sorted(system.support(gamma))
    if len(supp) == 1:
        return f"r_{supp[0]}"
    return "r_{" + ",".join(str(i) for i in supp) + "}"


def _node_ids(graph: TranslationGraph) -> dict[PetersonState, str]:
    return {s: f"n{i}" for i, s in enumerate(graph.nodes)}


def graph_to_dot(graph: TranslationGraph) -> str:
    """Graphviz rendering; nodes show the reduced word of z."""
    system = graph.root.z.system
    ids = _node_ids(graph)
    lines = ["digraph translates {", "  rankdir=TB;"]
    for s in graph.nodes:
        lines.append(f'  {ids[s]} [label="{format_word(reduced_word(s.z))}"];')
    for src, gamma, dst in graph.edges:
        label = reflection_label(system, gamma)
        lines.append(f'  {ids[src]} -> {ids[dst]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: TranslationGraph) -> dict:
    ids = _node_ids(graph)
    return {
        "root": ids[graph.root],
        "nodes": [
            {
                "id": ids[s],
                "v_tilde": list(reduced_word(s.z)),
                "weights": [list(r) for r in sorted(s.weights)],
            }
            for s in graph.nodes
        ],
        "edges": [
            {
                "source": ids[src],
                "gamma": list(gamma),
                "target": ids[dst],
            }
            for src, gamma, dst in graph.edges
        ],
    }


def fixed_point_table(d: nashcore.SchubertDatum) -> list[dict]:
    """Rows (v, v_tilde, N) over all fixed points of the Nash blow-up.

    Each fixed point v is sent through :func:`theorem2_map`; rows run by
    decreasing length, then reduced word.
    """
    rows = []
    for z in sorted(
        nashcore.nash_fixed_points(d), key=lambda v: (-v.length, reduced_word(v))
    ):
        st = theorem2_map(z, d)
        rows.append(
            {
                "v": list(reduced_word(z)),
                "v_tilde": list(reduced_word(st.z)),
                "weights": [list(r) for r in sorted(st.weights)],
            }
        )
    return rows
