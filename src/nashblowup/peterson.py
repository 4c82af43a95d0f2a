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

All of tau but M depends on (z, P) alone, so one bounded cache holds a step
table per (z, P): per left inversion gamma, the target z', ambient(z'),
r_gamma's root permutation, and for each gamma-string with two or more
ambient roots its packed masks by count.  Iterating from (w, LInv(w)) until
no further translation applies is one breadth-first walk over these
tables; it yields the translation graph (:func:`eventual_translates`), or
only the number of states over each z (:func:`translate_counts`).  For
cominuscule P every string meets the ambient set at most once, so sigma is
the identity and the states biject with the fixed points of the Nash
blow-up; the map witnessing the bijection is :func:`theorem2_map` and the
check is :func:`verify_theorem2`.

Singularity detection: a fixed point u of X_w^P is singular iff some v >= u
carries two distinct eventual translates (v, N) != (v, N'); see
:func:`ck_singular_points`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .rootsystem import InvariantViolation, Root, RootSystem, format_root
from . import nashcore
from .weyl import (
    ParabolicSubset,
    WeylElement,
    format_word,
    is_min_coset_rep,
    left_inversions,
    min_coset_rep,
    multiply,
    reduced_word,
    reflection_from_root,
    _check_levi,
    _ideal,
)

__all__ = [
    "PetersonState",
    "TranslationGraph",
    "weight_mask",
    "mask_roots",
    "ambient_weights",
    "sigma_shift",
    "tau",
    "translate_counts",
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
def _gamma_strings(system: RootSystem, gamma: Root) -> tuple:
    """The gamma-strings of two or more roots, one table per (system, gamma).

    Each string is its mask and its root indices, bottom first, walked along
    beta + gamma from its one root with no predecessor (root strings are
    unbroken).  gamma and -gamma lie in different strings, since 0 is not a
    root; no ambient set contains both.
    """
    if not system.is_root(gamma):
        raise ValueError(f"{gamma} is not a root")
    index, roots = system.index, system.roots
    up: dict[int, int] = {}
    for i, beta in enumerate(roots):
        j = index.get(tuple(b + g for b, g in zip(beta, gamma)))
        if j is not None:
            up[i] = j
    strings = []
    for i in sorted(set(up) - set(up.values())):  # bottoms of strings of two+
        ix = [i]
        while ix[-1] in up:
            ix.append(up[ix[-1]])
        strings.append((sum(1 << j for j in ix), tuple(ix)))
    return tuple(strings)


def _packings(system: RootSystem, gamma: Root, ambient: int) -> tuple:
    """:func:`_packing` of each gamma-string with two or more ambient roots."""
    return tuple(
        _packing(smask, ix, ambient & smask)
        for smask, ix in _gamma_strings(system, gamma)
        if (ambient & smask) & ((ambient & smask) - 1)
    )


@lru_cache(maxsize=None)
def _packing(smask: int, ix: tuple[int, ...], inside: int) -> tuple:
    """(smask, packed masks by count) for a string ``ix``, bottom first, whose
    ambient roots are ``inside``.

    The minimal element mu, the ambient member with mu - gamma not ambient,
    is unique iff the ambient roots form one run; then c weights pack to
    {mu, ..., mu + (c-1) gamma}, the c-th entry.  Otherwise the entry is
    None: a weight set meeting the string fails.
    """
    run = [k for k, i in enumerate(ix) if inside >> i & 1]
    if run[-1] - run[0] != len(run) - 1:
        return smask, None
    packed = [0]
    for i in ix[run[0] : run[-1] + 1]:
        packed.append(packed[-1] | 1 << i)
    return smask, tuple(packed)


def _shift(m: int, packings: tuple, gamma: Root) -> int:
    """sigma_gamma of a mask inside the ambient set the packings were made for."""
    out = m
    for smask, packed in packings:
        c = (m & smask).bit_count()
        if c:
            if packed is None:
                msg = f"alpha-minimal element not unique on string {smask:#x} along"
                raise InvariantViolation(f"{msg} {gamma}")
            out = out & ~smask | packed[c]
    if out.bit_count() != m.bit_count():
        raise InvariantViolation("sigma changed the cardinality of the weight set")
    return out


def sigma_shift(z: WeylElement, p: ParabolicSubset, m: int, alpha: Root) -> int:
    """Pack each alpha-string of M into the positions nearest its minimal element.

    M and the result are masks.  The minimal element mu of a string is its
    ambient member with mu - alpha outside the ambient set; it must be
    unique on every string that holds two or more ambient roots and meets M.
    c weights of M on the string become {mu, mu + alpha, ..., mu + (c-1)
    alpha}, so full blocks and strings with one ambient member are left
    unchanged.
    """
    ambient = ambient_weights(z, p)
    if m & ~ambient:
        raise ValueError("weight set must live inside the ambient set of z")
    return _shift(m, _packings(z.system, alpha, ambient), alpha)


# the walks of different w meet the same (z, P), so tables are reused across
# walks; the bound keeps the memory of a long sweep flat
@lru_cache(maxsize=2048)
def _step_table(z: WeylElement, p: ParabolicSubset) -> tuple[tuple, ...]:
    """One step per left inversion gamma of z, in sorted order of gamma.

    A step is (gamma, z', ambient(z'), r_gamma's root permutation, the
    packings of gamma over ambient(z)), where z', the minimal representative
    of r_gamma z, must be shorter than z.
    """
    rs = z.system
    ambient = ambient_weights(z, p)
    steps = []
    for gamma in sorted(left_inversions(z)):
        refl = reflection_from_root(rs, gamma)
        target = min_coset_rep(multiply(refl, z), p)
        if target.length >= z.length:
            raise InvariantViolation("translation failed to decrease length")
        packings = _packings(rs, gamma, ambient)
        steps.append((gamma, target, ambient_weights(target, p), refl.perm, packings))
    return tuple(steps)


def _translate(m: int, step: tuple) -> int:
    """r_gamma(sigma_gamma(M)) for one step, checked to lie in ambient(z')."""
    gamma, _, ambient, perm, packings = step
    shifted = _shift(m, packings, gamma) if packings else m
    new = 0
    while shifted:
        low = shifted & -shifted
        new |= 1 << perm[low.bit_length() - 1]
        shifted ^= low
    if new & ~ambient:
        raise InvariantViolation("translated weights left the ambient set")
    return new


def tau(state: PetersonState, gamma: Root, p: ParabolicSubset) -> PetersonState:
    """One translation step along a left inversion gamma of z."""
    z = state.z
    if gamma not in left_inversions(z):
        raise ValueError(
            f"{format_root(gamma)} is not a left inversion of "
            f"{format_word(reduced_word(z))}"
        )
    if state.mask & ~ambient_weights(z, p):
        raise ValueError("weight set must live inside the ambient set of z")
    step = next(s for s in _step_table(z, p) if s[0] == gamma)
    return PetersonState(step[1], _translate(state.mask, step))


def _walk(w: WeylElement, p: ParabolicSubset, edges: list | None = None) -> list:
    """The (z, M) reached from (w, LInv(w)) in breadth-first order, steps of
    each in sorted order of gamma; each step is appended to ``edges``, when
    given, as (source position, gamma, target position).  Only the start is
    checked to lie in ambient(z): each target is checked as it is made.
    """
    rs = w.system
    _check_levi(rs, p)
    if not min_coset_rep(w, p) == w:
        raise ValueError(
            f"{format_word(reduced_word(w))} is not a minimal coset representative"
        )
    nodes = [(w, weight_mask(rs, left_inversions(w)))]
    if nodes[0][1] & ~ambient_weights(w, p):
        raise ValueError("weight set must live inside the ambient set of z")
    # keyed by z.perm, hashed in C; an element's __hash__ would run Python code
    position = {(w.perm, nodes[0][1]): 0}
    for src, (z, m) in enumerate(nodes):  # grows while it is read
        for step in _step_table(z, p):
            new = _translate(m, step)
            k = position.setdefault((step[1].perm, new), len(nodes))
            if k == len(nodes):
                nodes.append((step[1], new))
            if edges is not None:
                edges.append((src, step[0], k))
    return nodes


@lru_cache(maxsize=1)
def eventual_translates(w: WeylElement, p: ParabolicSubset) -> TranslationGraph:
    """Breadth-first closure of translation from (w, LInv(w)).

    Deterministic: neighbors are explored in lexicographic order of gamma.
    Edge targets always have strictly smaller length, so the graph is acyclic.
    The last graph built is memoised (one entry), so checks of one datum made
    in a row share it; graphs and states are immutable, so that is safe.
    """
    found: list[tuple[int, Root, int]] = []
    nodes = tuple(PetersonState(z, m) for z, m in _walk(w, p, found))
    edges = tuple((nodes[a], gamma, nodes[b]) for a, gamma, b in found)
    return TranslationGraph(root=nodes[0], nodes=nodes, edges=edges)


def translate_counts(w: WeylElement, p: ParabolicSubset) -> Counter[WeylElement]:
    """The number of translation states over each z, without building the graph."""
    return Counter(z for z, _ in _walk(w, p))


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
    if z not in nashcore.nash_fixed_points(d):
        raise ValueError(f"{format_word(reduced_word(z))} is not below w")
    return _theorem2_image(z, d)


def _theorem2_image(z: WeylElement, d: nashcore.SchubertDatum) -> PetersonState:
    """:func:`theorem2_map` for z already known to be a fixed point of d."""
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
    images = Counter(_theorem2_image(z, d) for z in fixed)
    states = set(graph.nodes)
    missing = tuple(sorted(states - set(images), key=_state_sort_key))
    extra = tuple(sorted(set(images) - states, key=_state_sort_key))
    collided = sorted((s for s, c in images.items() if c > 1), key=_state_sort_key)
    collisions = tuple((s, images[s]) for s in collided)
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
    translates (v, N) != (v, N'): the singular locus is the ideal of W^P
    below those v.
    """
    graph = eventual_translates(w, p)
    per_z = Counter(s.z for s in graph.nodes)
    multi = frozenset(z for z, c in per_z.items() if c > 1)
    return _ideal(multi, p.levi) if multi else frozenset()


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

    Each fixed point v is sent through the map of :func:`theorem2_map`; rows
    run by decreasing length, then reduced word.
    """
    rows = []
    for z in sorted(
        nashcore.nash_fixed_points(d), key=lambda v: (-v.length, reduced_word(v))
    ):
        st = _theorem2_image(z, d)
        rows.append(
            {
                "v": list(reduced_word(z)),
                "v_tilde": list(reduced_word(st.z)),
                "weights": [list(r) for r in sorted(st.weights)],
            }
        )
    return rows
