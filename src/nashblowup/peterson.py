"""Combinatorial Peterson translation of tangent-space weight sets.

A state is a pair (z, M) with z a minimal coset representative and M a set
of weights inside the ambient set z(R^- minus R_L^-).  Translating along a
left inversion gamma of z packs every gamma-string of M towards its
gamma-minimal element (sigma), applies r_gamma, and projects z back to W^P:

    tau_gamma(z, M) = (min rep of r_gamma z,  r_gamma(sigma_gamma(M))).

Weight sets, ambient sets included, are int bitmasks over the indices of
``system.roots`` wherever they are handed out: bit i stands for
``system.roots[i]``.  Root tuples appear only when a state is rendered.

All of tau but M depends on (z, P) alone, so one store per parabolic holds
a step table per z: ambient(z), and per left inversion gamma the target z',
r_gamma's root permutation, and for each gamma-string with two or more
ambient roots its packed sets by count.  Iterating from (w, LInv(w)) until
no further translation applies is one breadth-first walk over these
tables (:func:`_walk`, on raw root indices, Casselman's tables applied one
layer up); it yields the translation graph (:func:`eventual_translates`), or,
without edges and kept for the next call, the states alone: their number
over each z (:func:`translate_counts`) and the checks below read that walk.

For cominuscule P every string meets the ambient set at most once, so sigma
is the identity and the states biject with the fixed points of the Nash
blow-up; the map witnessing the bijection is :func:`theorem2_map` and the
check is :func:`verify_theorem2`.  It compares raw (key, M) index sets, no
graph: the coset key of :mod:`nashcore` is ambient(z).

Singularity detection: a fixed point u of X_w^P is singular iff some v >= u
carries two distinct eventual translates (v, N) != (v, N'); see
:func:`ck_singular_points`, which reads :func:`translate_counts`.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, NamedTuple

from .rootsystem import InvariantViolation, Root, RootSystem
from . import nashcore
from .weyl import (
    ParabolicSubset,
    WeylElement,
    format_word,
    is_min_coset_rep,
    min_coset_rep,
    reduced_word,
    _check_levi,
    _compose,
    _descend,
    _element,
    _ideal,
    _reflection_tables,
    _set_type,
    _table_type,
)

__all__ = [
    "PetersonState",
    "TranslationGraph",
    "weight_mask",
    "mask_roots",
    "ambient_weights",
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


def _index_mask(indices: Iterable[int]) -> int:
    """The mask of a set of root indices; the inverse of :func:`_mask_indices`."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def weight_mask(system: RootSystem, roots: Iterable[Root]) -> int:
    """The bitmask of a set of roots: bit i stands for ``system.roots[i]``."""
    return _index_mask(map(system.index.__getitem__, roots))


def _mask_indices(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_roots(system: RootSystem, mask: int) -> frozenset[Root]:
    """The roots whose bits are set in ``mask``; the inverse of :func:`weight_mask`."""
    roots = system.roots
    return frozenset(roots[i] for i in _mask_indices(mask))


class PetersonState(NamedTuple):
    """A (z, M) pair; a record, equal to and hashed as its field tuple.

    ``mask`` holds M as a bitmask over ``z.system.roots``; ``weights`` is
    the same set as root tuples, for rendering.
    """

    z: WeylElement
    mask: int

    @property
    def weights(self) -> frozenset[Root]:
        return mask_roots(self.z.system, self.mask)


class TranslationGraph(NamedTuple):
    """Translation states in BFS discovery order, with labeled edges."""

    root: PetersonState
    nodes: tuple[PetersonState, ...]
    edges: tuple[tuple[PetersonState, Root, PetersonState], ...]


def ambient_weights(z: WeylElement, p: ParabolicSubset) -> int:
    """z(R^- minus R_L^-) as a mask: the ambient set that carries every M."""
    rs = z.system
    _check_levi(rs, p)
    return _index_mask(map(z.perm.__getitem__, nashcore._ambient_indices(rs, p.levi)))


@lru_cache(maxsize=16)
def _root_codes(system: RootSystem) -> dict[int, int]:
    """{code: index}: a base-32 digit per coefficient, offset by 16; no supported
    coefficient passes 4 in size, so adding gamma's digits adds gamma, no carry."""
    codes = (sum(c + 16 << 5 * k for k, c in enumerate(b)) for b in system.roots)
    return {c: i for i, c in enumerate(codes)}


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
    codes, shift = _root_codes(system), sum(g << 5 * k for k, g in enumerate(gamma))
    up: dict[int, int] = {}
    for c, i in codes.items():
        j = codes.get(c + shift)
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
    pack, sets = _table_type(system), _set_type(system)
    return tuple(
        _packing(smask, ix, ambient & smask, pack, sets)
        for smask, ix in _gamma_strings(system, gamma)
        if (ambient & smask) & ((ambient & smask) - 1)
    )


@lru_cache(maxsize=None)
def _packing(smask: int, ix: tuple, inside: int, pack: type, sets: type) -> tuple:
    """(smask, the string's members, packed index sets by count) for a string
    ``ix``, bottom first, whose ambient roots are ``inside``.

    The minimal element mu, the ambient member with mu - gamma not ambient,
    is unique iff the ambient roots form one run; then c weights pack to
    {mu, ..., mu + (c-1) gamma}, the c-th entry.  Otherwise the entry is
    None: a weight set meeting the string fails.
    """
    run = [k for k, i in enumerate(ix) if inside >> i & 1]
    members = sets(ix)
    if run[-1] - run[0] != len(run) - 1:
        return smask, members, None
    mu = run[0]
    return smask, members, tuple(pack(ix[mu : mu + c]) for c in range(len(run) + 1))


@lru_cache(maxsize=1)  # one parabolic's store {z.perm: step table}, filled by _walk
def _step_tables(system: RootSystem, p: ParabolicSubset) -> dict:
    return {}


def _step_table(z: WeylElement, p: ParabolicSubset) -> tuple:
    """(ambient(z), steps): ambient(z) from :func:`ambient_weights` as the
    root indices the walk deletes, and one step per left inversion gamma of
    z, in sorted order of gamma.

    A step is (gamma, z', r_gamma's padded root table, the packings of gamma
    over ambient(z)), where z', the minimal representative of r_gamma z, must
    be shorter than z.
    """
    rs = z.system
    ambient = ambient_weights(z, p)
    reflections = _reflection_tables(rs)
    roots, n = rs.roots, len(rs.positive_roots)
    steps = []
    # the left inversions are the positive roots among z(R^-)
    for j in sorted((j for j in z.perm[n:] if j < n), key=roots.__getitem__):
        table = reflections[j]
        target = _element(rs, _descend(rs, _compose(table, z.perm), p.levi, True))
        if target.length >= z.length:
            raise InvariantViolation("translation failed to decrease length")
        packings = _packings(rs, roots[j], ambient)
        steps.append((roots[j], target, table, packings))
    return _set_type(rs)(_mask_indices(ambient)), tuple(steps)


def _walk(w: WeylElement, p: ParabolicSubset, edges: list | None = None) -> tuple:
    """(nodes, tables): the (z, M) reached from (w, LInv(w)) in breadth-first
    order, steps of each in sorted order of gamma, M the ascending index set
    of its roots (bytes up to 256 roots, a tuple above), and the store of
    P's step tables; each step goes to ``edges``, if given, as (source, gamma, target).
    Each state is checked to lie in ambient(z) when its steps are taken, so
    before the walk returns: the start raises ValueError, a translate
    InvariantViolation.

    A step is r_gamma(sigma_gamma(M)), taken inline.  sigma deletes the
    indices M holds on each packed string and adds the packed set of as
    many, so the size never changes; r_gamma is one map through its table
    and a sort.
    """
    rs = w.system
    if not is_min_coset_rep(w, p):  # which checks p's indices first
        raise ValueError(
            f"{format_word(reduced_word(w))} is not a minimal coset representative"
        )
    pack = _table_type(rs)
    is_bytes = pack is bytes
    n = len(rs.positive_roots)  # LInv(w): the positive roots among w(R^-)
    nodes = [(w, pack(sorted(j for j in w.perm[n:] if j < n)))]
    # keyed by raw tables, hashed in C; an element's __hash__ would run
    # Python code.  Only lookups: the order is that of ``nodes``
    position = {(w.perm, nodes[0][1]): 0}
    tables = _step_tables(rs, p)
    for src, (z, m) in enumerate(nodes):  # grows while it is read
        table = tables.get(z.perm)
        if table is None:
            table = tables[z.perm] = _step_table(z, p)
        ambient, steps = table
        if is_bytes:
            outside = m.translate(None, ambient)
        else:
            outside = [i for i in m if i not in ambient]
        if outside and not src:
            raise ValueError("weight set must live inside the ambient set of z")
        if outside:
            raise InvariantViolation("translated weights left the ambient set")
        for gamma, target, refl, packings in steps:
            new = m
            for smask, members, packed in packings:
                if is_bytes:
                    rest = new.translate(None, members)
                else:
                    rest = tuple(i for i in new if i not in members)
                c = len(new) - len(rest)
                if c:
                    if packed is None:
                        msg = f"alpha-minimal element not unique on string {smask:#x}"
                        raise InvariantViolation(f"{msg} along {gamma}")
                    new = rest + packed[c]
            if is_bytes:
                new = bytes(sorted(new.translate(refl)))
            else:
                new = tuple(sorted(map(refl.__getitem__, new)))
            k = position.setdefault((target.perm, new), len(nodes))
            if k == len(nodes):
                nodes.append((target, new))
            if edges is not None:
                edges.append((src, gamma, k))
    return nodes, tables


def eventual_translates(w: WeylElement, p: ParabolicSubset) -> TranslationGraph:
    """Breadth-first closure of translation from (w, LInv(w)).

    Deterministic: neighbors are explored in lexicographic order of gamma.
    Edge targets always have strictly smaller length, so the graph is acyclic.
    """
    found: list[tuple[int, Root, int]] = []
    nodes = tuple(PetersonState(z, _index_mask(m)) for z, m in _walk(w, p, found)[0])
    edges = tuple((nodes[a], gamma, nodes[b]) for a, gamma, b in found)
    return TranslationGraph(root=nodes[0], nodes=nodes, edges=edges)


# the edge-free walk, the last one kept (read only): the checks of one datum share it
_walked = lru_cache(maxsize=1)(_walk)


def translate_counts(w: WeylElement, p: ParabolicSubset) -> Counter[WeylElement]:
    """The number of translation states over each z, read off the edge-free walk."""
    return Counter(z for z, _ in _walked(w, p)[0])


def _tangent_indices(d: nashcore.SchubertDatum) -> tuple[int, ...]:
    """E = w^{-1}(LInv(w)) as indices in ``d.system.roots``: the i >= n (the
    negative roots) with ``w.perm[i] < n``, which w makes positive."""
    n = len(d.system.positive_roots)
    return tuple(i for i, j in enumerate(d.w.perm[n:], n) if j < n)


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
    m = _index_mask(map(z.perm.__getitem__, _tangent_indices(d)))
    return PetersonState(min_coset_rep(z, d.p), m)


class Theorem2Report(NamedTuple):
    """Outcome of comparing the closed-form map with the translation states."""

    ok: bool
    fixed_point_count: int
    state_count: int
    missing: tuple[PetersonState, ...]  # translates never hit by the map
    extra: tuple[PetersonState, ...]  # images that are not eventual translates
    collisions: tuple[tuple[PetersonState, int], ...]  # non-injective images


def verify_theorem2(d: nashcore.SchubertDatum) -> Theorem2Report:
    """Check that z -> (min rep, z(E)) is a bijection onto the translate states,
    as raw (key(z), z(E)) against (ambient(z'), M); only a failure builds states."""
    rs = d.system
    groups = nashcore._fixed_point_groups(d)
    image = nashcore._image_set(_tangent_indices(d), _table_type(rs))
    images = [(k, image(t)) for k, g in groups.items() for t in g]
    nodes, tables = _walked(d.w, d.p)
    found = {(tables[z.perm][0], m) for z, m in nodes}
    if len(images) == len(found) and found == set(images):  # so no collision
        return Theorem2Report(True, len(images), len(nodes), (), (), ())
    # name both sides as states, a key by its fiber's shortest member
    named = Counter(
        PetersonState(_element(rs, groups[k][0]), _index_mask(m)) for k, m in images
    )
    states = {PetersonState(z, _index_mask(m)) for z, m in nodes}
    collided = sorted((s for s, c in named.items() if c > 1), key=_state_sort_key)
    missing = tuple(sorted(states - set(named), key=_state_sort_key))
    extra = tuple(sorted(set(named) - states, key=_state_sort_key))
    collisions = tuple((s, named[s]) for s in collided)
    return Theorem2Report(False, len(images), len(nodes), missing, extra, collisions)


def _state_sort_key(s: PetersonState):
    return (s.z.length, reduced_word(s.z), sorted(s.weights))


def ck_singular_points(w: WeylElement, p: ParabolicSubset) -> frozenset[WeylElement]:
    """Fixed points of X_w^P that are singular, by the translate-multiplicity test.

    u is singular iff some v >= u carries at least two distinct eventual
    translates (v, N) != (v, N'): the singular locus is the ideal of W^P
    below those v.
    """
    multi = frozenset(z for z, c in translate_counts(w, p).items() if c > 1)
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

    Each fixed point v is sent through the map of :func:`theorem2_map`, v_tilde
    read off v's fiber; rows run by decreasing length, then reduced word.
    """
    roots, tangent = d.system.roots, _tangent_indices(d)
    pairs = [(z, v) for v, g in nashcore.nash_fibers(d).items() for z in g]
    pairs.sort(key=lambda zv: (-zv[0].length, reduced_word(zv[0])))
    return [
        {
            "v": list(reduced_word(z)),
            "v_tilde": list(reduced_word(v)),
            "weights": [list(r) for r in sorted(roots[z.perm[i]] for i in tangent)],
        }
        for z, v in pairs
    ]
