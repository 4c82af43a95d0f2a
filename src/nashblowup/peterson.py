"""Combinatorial Peterson translation of tangent-space weight sets.

A state is a pair (z, M) with z a minimal coset representative and M a set
of weights inside the ambient set z(R^- minus R_L^-).  Translating along a
left inversion gamma of z packs every gamma-string of M towards its
gamma-minimal element (sigma), applies r_gamma, and projects z back to W^P:

    tau_gamma(z, M) = (min rep of r_gamma z,  r_gamma(sigma_gamma(M))).

Root strings are unbroken, so the gamma-strings of a root system are
tabulated once per (system, gamma), bottom first, and sigma takes the first
c roots of a string from its lowest ambient member.  Iterating from
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


class PetersonState:
    """An immutable (z, M) pair with a precomputed hash."""

    __slots__ = ("z", "weights", "_hash")

    def __init__(self, z: WeylElement, weights: frozenset[Root]) -> None:
        self.z = z
        self.weights = weights
        self._hash = hash((z, weights))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PetersonState)
            and self.z == other.z
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return self._hash

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
def ambient_weights(z: WeylElement, p: ParabolicSubset) -> frozenset[Root]:
    """z(R^- minus R_L^-): the ambient set that carries every weight set M."""
    rs = z.system
    _check_levi(rs, p)
    return frozenset(
        z(b) for b in rs.negative_roots if not rs.in_levi(b, p.levi)
    )


@lru_cache(maxsize=None)
def _gamma_strings(
    system: RootSystem, gamma: Root
) -> tuple[dict[Root, int], tuple[tuple[Root, ...], ...]]:
    """({root: id of its gamma-string}, strings), one table per (system, gamma).

    Root strings are unbroken: each string is walked along beta + gamma
    through ``system.index`` from its one root with no predecessor, and lists
    roots of ``system.roots`` bottom first.  gamma and -gamma lie in different
    strings, since 0 is not a root; no ambient set contains both.
    """
    if not system.is_root(gamma):
        raise ValueError(f"{gamma} is not a root")
    index, roots = system.index, system.roots
    up: dict[Root, Root] = {}
    for beta in roots:
        if (nxt := tuple(b + g for b, g in zip(beta, gamma))) in index:
            up[beta] = roots[index[nxt]]
    above = set(up.values())
    ids: dict[Root, int] = {}
    strings: list[tuple[Root, ...]] = []
    for beta in roots:
        if beta in above:
            continue  # not the bottom of its string
        string = [beta]
        while string[-1] in up:
            string.append(up[string[-1]])
        ids.update((b, len(strings)) for b in string)
        strings.append(tuple(string))
    return ids, tuple(strings)


def sigma_shift(
    z: WeylElement, p: ParabolicSubset, m: frozenset[Root], alpha: Root
) -> frozenset[Root]:
    """Pack each alpha-string of M into the positions nearest its minimal element.

    The minimal element mu of a string is its ambient member with mu - alpha
    outside the ambient set; it must be unique, and this is re-verified on
    every call.  c weights of M on the string become
    {mu, mu + alpha, ..., mu + (c-1) alpha}, so full blocks and singleton
    blocks are left unchanged.
    """
    ambient = ambient_weights(z, p)
    if not m <= ambient:
        raise ValueError("weight set must live inside the ambient set of z")
    ids, strings = _gamma_strings(z.system, alpha)
    if len({ids[beta] for beta in ambient}) == len(ambient):
        # all strings are singletons {mu}, with mu - alpha outside the ambient set
        return m
    out: list[Root] = []
    for sid, c in Counter(ids[beta] for beta in m).items():
        string = strings[sid]
        inside = [beta in ambient for beta in string]
        bottoms = [i for i, x in enumerate(inside) if x and not (i and inside[i - 1])]
        if len(bottoms) != 1:
            raise InvariantViolation(
                f"alpha-minimal element not unique in {list(string)} along {alpha}"
            )
        out += string[bottoms[0] : bottoms[0] + c]
    if len(out) != len(m):
        raise InvariantViolation("sigma changed the cardinality of the weight set")
    return frozenset(out)


def tau(state: PetersonState, gamma: Root, p: ParabolicSubset) -> PetersonState:
    """One translation step along a left inversion gamma of z."""
    z = state.z
    if gamma not in left_inversions(z):
        raise ValueError(
            f"{format_root(gamma)} is not a left inversion of "
            f"{format_word(reduced_word(z))}"
        )
    refl = reflection_from_root(z.system, gamma)
    shifted = sigma_shift(z, p, state.weights, gamma)
    new_weights = frozenset(refl(r) for r in shifted)
    new_z = min_coset_rep(multiply(refl, z), p)
    if not new_weights <= ambient_weights(new_z, p):
        raise InvariantViolation("translated weights left the ambient set")
    return PetersonState(new_z, new_weights)


def eventual_translates(w: WeylElement, p: ParabolicSubset) -> TranslationGraph:
    """Breadth-first closure of translation from (w, LInv(w)).

    Deterministic: neighbors are explored in lexicographic order of gamma.
    Edge targets always have strictly smaller length, so the graph is acyclic.
    """
    rs = w.system
    _check_levi(rs, p)
    if not min_coset_rep(w, p) == w:
        raise ValueError(
            f"{format_word(reduced_word(w))} is not a minimal coset representative"
        )
    start = PetersonState(w, frozenset(left_inversions(w)))
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
    e_set = nashcore.tangent_roots(d)
    return PetersonState(min_coset_rep(z, d.p), frozenset(z(r) for r in e_set))


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
