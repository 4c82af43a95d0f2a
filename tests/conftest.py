"""Shared fixtures.

The A3 datum (w = s1*s3*s2 inside the two-step flag variety given by
levi {1, 3}) is small enough to check by hand and rich enough to
exercise every code path: an empty kept-root set, a four-element fiber
over the identity, and a translation graph with a branch point.

``wp_fiber_search`` is a second route to a Nash fiber, kept here as an
oracle for ``nashcore.nash_fiber``: it never projects W^Q onto W^P.
``perm_to_weyl_by_word`` builds a permutation's element from a reduced word,
the route that the one-table ``grassmann.perm_to_weyl`` is checked against.
``descent_walk`` right-multiplies by one simple reflection at a time, the
route that the raw-table descent walks behind ``weyl.min_coset_rep``,
``weyl.max_coset_rep`` and ``weyl.reduced_word`` are checked against.
``weyl_group``, ``min_reps_perm`` and ``bruhat_leq_perm`` list whole groups
or quotients and filter them, the brute-force routes that the W^P walk
``weyl.interval_min_reps`` is checked against.  ``positive_roots_closure``
re-scans every known root until none is added, the route that the
level-by-level ``rootsystem._generate_positives`` is checked against.
``pairing`` and ``reflect`` act on root vectors through the symmetrized
Cartan matrix ``bilinear``, the forms that ``weyl.reflection_from_root`` and
the root permutations are checked against; the package itself only applies
simple reflections from the Cartan matrix.
``min_coset_fibers`` groups the fixed points of the blow-up by their
projection ``weyl.min_coset_rep``, the route that ``nashcore.nash_fibers``,
which keys each coset by z(R^- minus R_L^-), is checked against.
``gamma_strings_by_tuples`` walks beta + gamma on root tuples, the route that
``peterson._gamma_strings`` on integer root codes is checked against.
``oracle_translates`` is the translation graph with the step done per edge
(``_oracle_tau`` after ``_oracle_sigma_shift``): each edge looks up its
reflection, its target coset and the strings of M on the spot.  It is the
route that the package's walk over its per-parabolic step tables, the only
translation step in the package, is checked against.  ``sigma_on_mask``
applies the walk's packings (``peterson._packings``) to a mask, so that the
packings of one state can be checked by hand.
``diagram_automorphism`` maps nodes, elements and roots of A_n, D_n and E6
through the diagram automorphism, the relabeling under which every result
of a datum must map onto the result of its image.
"""

from collections import deque
from functools import lru_cache

import pytest

from itertools import combinations

from nashblowup import grassmann
from nashblowup import nashcore
from nashblowup import peterson
from nashblowup import rootsystem
from nashblowup import weyl
from nashblowup.peterson import PetersonState, TranslationGraph
from nashblowup.rootsystem import InvariantViolation
from nashblowup.weyl import (
    WeylElement,
    bruhat_leq,
    identity,
    multiply,
    simple_reflection,
)


def _wp_fiber_search(v, d):
    """The fiber over v, by breadth-first search inside W_P.

    The set {u in W_P : v u <= w} is a lower order ideal, so growing reduced
    words letter by letter under the Bruhat bound reaches all of it; the
    fiber is {v u : u has no right descent in Delta_w}.
    """
    q_levi = nashcore.delta_w(d)
    e = identity(d.system)
    seen: set[WeylElement] = {e}
    queue: deque[WeylElement] = deque([e])
    fiber = []
    while queue:
        u = queue.popleft()
        # v u is in W^Q iff u has no right descent inside Delta_w
        if not any(any(c < 0 for c in u.column(i)) for i in q_levi):
            fiber.append(multiply(v, u))
        for i in d.p.levi:
            nxt = multiply(u, simple_reflection(u.system, i))
            if nxt.length <= u.length or nxt in seen:
                continue
            if bruhat_leq(multiply(v, nxt), d.w):
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(fiber)


@pytest.fixture(scope="session")
def wp_fiber_search():
    return _wp_fiber_search


def _weyl_group(system):
    """The whole group, by breadth-first closure over right multiplication."""
    e = identity(system)
    seen: set[WeylElement] = {e}
    queue: deque[WeylElement] = deque([e])
    while queue:
        w = queue.popleft()
        for i in range(1, system.rank + 1):
            nxt = multiply(w, simple_reflection(system, i))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def _descent_walk(w, indices, down):
    """(end, steps): right-multiply w by s_i, i the least of ``indices`` at
    which it has a right descent (``down``) or ascent (not ``down``), one
    ``multiply`` at a time, until there is none.  With every index and
    ``down``, the steps read backwards are the greedy reduced word."""
    steps = []
    while True:
        descents = weyl.right_descents(w)
        moves = [i for i in sorted(indices) if (i in descents) == down]
        if not moves:
            return w, tuple(steps)
        steps.append(moves[0])
        w = multiply(w, simple_reflection(w.system, moves[0]))


@pytest.fixture(scope="session")
def descent_walk():
    return _descent_walk


def _perm_to_weyl_by_word(system, p):
    """The element of a permutation, by bubble-sorting p into a word."""
    work = list(p)
    stripped = []
    while True:
        for i in range(len(work) - 1):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                stripped.append(i + 1)
                break
        else:
            break
    return weyl.from_word(system, reversed(stripped))


def _min_reps_perm(n, levi):
    """All minimal coset representatives for W_levi, as one-line tuples.

    They are the permutations increasing on each block of consecutive
    positions glued by the levi (i in levi joins positions i and i+1).
    """
    sizes = [1]
    for i in range(1, n):
        if i in levi:
            sizes[-1] += 1
        else:
            sizes.append(1)

    def fill(remaining, idx):
        if idx == len(sizes):
            yield ()
            return
        for vals in combinations(sorted(remaining), sizes[idx]):
            for rest in fill(remaining - set(vals), idx + 1):
                yield vals + rest

    yield from fill(frozenset(range(1, n + 1)), 0)


def _bruhat_leq_perm(u, v):
    """Prefix-dominance test: sorted u(1..q) dominated by sorted v(1..q)."""
    n = grassmann.check_permutation(u)
    if grassmann.check_permutation(v) != n:
        raise ValueError("length mismatch")
    for q in range(1, n):
        us = sorted(u[:q])
        vs = sorted(v[:q])
        if any(a > b for a, b in zip(us, vs)):
            return False
    return True


def _positive_roots_closure(cartan):
    """Closure of the simple roots under root strings.

    For a root beta and simple i, with p = max{k >= 0 : beta - k alpha_i is a
    root}, beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0.
    """
    rank = len(cartan)
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    grew = True
    while grew:
        grew = False
        for beta in list(roots):
            for i in range(rank):
                pair = sum(cartan[i][j] * beta[j] for j in range(rank))
                p = 0
                down = tuple(b - s for b, s in zip(beta, simples[i]))
                while down in roots:
                    p += 1
                    down = tuple(b - s for b, s in zip(down, simples[i]))
                if p - pair > 0:
                    up = tuple(b + s for b, s in zip(beta, simples[i]))
                    if up not in roots:
                        roots.add(up)
                        grew = True
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def _symmetrizer(ct):
    """d with d_i a[i][j] symmetric: alpha_n is short in B_n, long in C_n."""
    n = ct.rank
    if ct.family == "B":
        return (2,) * (n - 1) + (1,)
    if ct.family == "C":
        return (1,) * (n - 1) + (2,)
    return (1,) * n


@lru_cache(maxsize=None)
def _bilinear(system):
    """(alpha_i, alpha_j) = d_i a[i][j] on the simple roots."""
    d = _symmetrizer(system.cartan_type)
    return tuple(
        tuple(d[i] * a for a in row) for i, row in enumerate(system.cartan_matrix)
    )


def _pairing(system, beta, alpha):
    """<beta, alpha^vee> = 2 (beta, alpha) / (alpha, alpha) for a root alpha."""
    assert system.is_root(alpha), alpha
    bil = _bilinear(system)
    n = system.rank

    def form(x, y):
        return sum(x[i] * bil[i][j] * y[j] for i in range(n) for j in range(n))

    num, den = 2 * form(beta, alpha), form(alpha, alpha)
    assert num % den == 0, (beta, alpha)
    return num // den


def _reflect(system, alpha, beta):
    """The reflection in alpha applied to beta: beta - <beta, alpha^vee> alpha."""
    c = _pairing(system, beta, alpha)
    out = tuple(b - c * a for b, a in zip(beta, alpha))
    assert not system.is_root(beta) or system.is_root(out), out
    return out


def _oracle_sigma_shift(z, p, m, alpha):
    """sigma_alpha on a mask, packing each string of M as it is met."""
    ambient = peterson.ambient_weights(z, p)
    if m & ~ambient:
        raise ValueError("weight set must live inside the ambient set of z")
    out = m
    for smask, ix in peterson._gamma_strings(z.system, alpha):
        inside = ambient & smask
        if not m & smask or not inside & (inside - 1):
            continue  # M misses the string, or holds its one ambient root
        if inside == smask:
            b = 0  # the whole string is ambient: its bottom is the one minimum
        else:
            bottoms = [
                k
                for k, i in enumerate(ix)
                if inside >> i & 1 and not (k and inside >> ix[k - 1] & 1)
            ]
            if len(bottoms) != 1:
                raise InvariantViolation(f"alpha-minimal not unique along {alpha}")
            b = bottoms[0]
        packed = 0
        for i in ix[b : b + (m & smask).bit_count()]:
            packed |= 1 << i
        out = out & ~smask | packed
    if out.bit_count() != m.bit_count():
        raise InvariantViolation("sigma changed the cardinality of the weight set")
    return out


def _oracle_tau(state, gamma, p):
    """One translation step, with its reflection and target looked up per call."""
    z = state.z
    if gamma not in weyl.left_inversions(z):
        raise ValueError(f"{gamma} is not a left inversion")
    refl = weyl.reflection_from_root(z.system, gamma)
    shifted = _oracle_sigma_shift(z, p, state.mask, gamma)
    new = 0
    while shifted:
        low = shifted & -shifted
        new |= 1 << refl.perm[low.bit_length() - 1]
        shifted ^= low
    new_z = weyl.min_coset_rep(multiply(refl, z), p)
    if new & ~peterson.ambient_weights(new_z, p):
        raise InvariantViolation("translated weights left the ambient set")
    return PetersonState(new_z, new)


def _oracle_translates(w, p):
    """The translation graph by a breadth-first search of states, one
    ``_oracle_tau`` per edge, neighbors in the sorted order of gamma."""
    rs = w.system
    start = PetersonState(w, peterson.weight_mask(rs, weyl.left_inversions(w)))
    nodes, seen, edges = [start], {start}, []
    queue = deque([start])
    while queue:
        st = queue.popleft()
        for gamma in sorted(weyl.left_inversions(st.z)):
            nxt = _oracle_tau(st, gamma, p)
            if nxt.z.length >= st.z.length:
                raise InvariantViolation("translation failed to decrease length")
            edges.append((st, gamma, nxt))
            if nxt not in seen:
                seen.add(nxt)
                nodes.append(nxt)
                queue.append(nxt)
    return TranslationGraph(root=start, nodes=tuple(nodes), edges=tuple(edges))


@pytest.fixture(scope="session")
def oracle_translates():
    return _oracle_translates


def _sigma_on_mask(m, packings, gamma):
    """sigma_gamma of a mask through the walk's packings of gamma: the bits
    M holds on each packed string give way to the packed set of as many."""
    for smask, _, packed in packings:
        c = (m & smask).bit_count()
        if c:
            if packed is None:
                raise InvariantViolation(f"alpha-minimal not unique along {gamma}")
            m = m & ~smask | peterson._index_mask(packed[c])
    return m


@pytest.fixture(scope="session")
def sigma_on_mask():
    return _sigma_on_mask


def _min_coset_fibers(d):
    """{v: fiber over v}, each fixed point under its projection to W^P."""
    groups = {}
    for z in nashcore.nash_fixed_points(d):
        groups.setdefault(weyl.min_coset_rep(z, d.p), set()).add(z)
    return {v: frozenset(g) for v, g in groups.items()}


@pytest.fixture(scope="session")
def min_coset_fibers():
    return _min_coset_fibers


def _gamma_strings_by_tuples(system, gamma):
    """The gamma-strings of two or more roots as (mask, indices bottom first),
    each beta + gamma added coefficient by coefficient."""
    if not system.is_root(gamma):
        raise ValueError(f"{gamma} is not a root")
    up = {}
    for i, beta in enumerate(system.roots):
        j = system.index.get(tuple(b + g for b, g in zip(beta, gamma)))
        if j is not None:
            up[i] = j
    strings = []
    for i in sorted(set(up) - set(up.values())):
        ix = [i]
        while ix[-1] in up:
            ix.append(up[ix[-1]])
        strings.append((sum(1 << j for j in ix), tuple(ix)))
    return tuple(strings)


@pytest.fixture(scope="session")
def gamma_strings_by_tuples():
    return _gamma_strings_by_tuples


@pytest.fixture
def fresh_step_tables():
    """Empty the step-table store and the walk memo before and after a test
    that patches what they are built from, so no patched table outlives it."""
    memos = (peterson._step_tables, peterson._walked)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.fixture(scope="session")
def bilinear():
    return _bilinear


@pytest.fixture(scope="session")
def pairing():
    return _pairing


@pytest.fixture(scope="session")
def reflect():
    return _reflect


@pytest.fixture(scope="session")
def positive_roots_closure():
    return _positive_roots_closure


@pytest.fixture(scope="session")
def weyl_group():
    return _weyl_group


@pytest.fixture(scope="session")
def perm_to_weyl_by_word():
    return _perm_to_weyl_by_word


@pytest.fixture(scope="session")
def min_reps_perm():
    return _min_reps_perm


@pytest.fixture(scope="session")
def bruhat_leq_perm():
    return _bruhat_leq_perm


@pytest.fixture(scope="session")
def a3():
    return rootsystem.root_system("A", 3)


@pytest.fixture(scope="session")
def a3_w(a3):
    return weyl.from_word(a3, [1, 3, 2])


@pytest.fixture(scope="session")
def a3_parabolic():
    return weyl.parabolic(1, 3)


@pytest.fixture(scope="session")
def a3_datum(a3, a3_parabolic, a3_w):
    return nashcore.SchubertDatum(a3, a3_parabolic, a3_w)


@pytest.fixture(scope="session")
def b3():
    return rootsystem.root_system("B", 3)


def _diagram_automorphism(system):
    """(theta on nodes, on elements, on roots) for the diagram automorphism
    theta of A_n (i -> n+1-i), D_n (n-1 <-> n) or E6 (1 <-> 6, 3 <-> 5); None
    for the other types.  Elements map through ``from_word`` of theta of a
    reduced word, so they compare as elements: the greedy word of theta(w)
    need not be theta of w's greedy word.  theta is an involution, so a
    root's coordinate at theta(i) is its coordinate at i."""
    ct, n = system.cartan_type, system.rank
    if ct.family == "A" and n > 1:
        node = {i: n + 1 - i for i in range(1, n + 1)}
    elif ct.family == "D":
        node = {**{i: i for i in range(1, n - 1)}, n - 1: n, n: n - 1}
    elif ct == ("E", 6):
        node = {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}
    else:
        return None

    def element(w):
        return weyl.from_word(system, [node[i] for i in weyl.reduced_word(w)])

    def root(beta):
        return tuple(beta[node[j] - 1] for j in range(1, n + 1))

    return node, element, root


@pytest.fixture(scope="session")
def diagram_automorphism():
    return _diagram_automorphism
