"""Shared fixtures.

The A3 datum (w = s1*s3*s2 inside the two-step flag variety given by
levi {1, 3}) is small enough to check by hand and rich enough to
exercise every code path: an empty kept-root set, a four-element fiber
over the identity, and a translation graph with a branch point.

``wp_fiber_search`` is a second route to a Nash fiber, kept here as an
oracle for ``nashcore.nash_fiber``: it never projects W^Q onto W^P.
``perm_to_weyl_by_word`` builds a permutation's element from a reduced word,
the route that the one-table ``grassmann.perm_to_weyl`` is checked against.
``weyl_group``, ``min_reps_perm`` and ``bruhat_leq_perm`` list whole groups
or quotients and filter them, the brute-force routes that the W^P walk
``weyl.interval_min_reps`` is checked against.  ``positive_roots_closure``
re-scans every known root until none is added, the route that the
level-by-level ``rootsystem._generate_positives`` is checked against.
``pairing`` and ``reflect`` act on root vectors through the symmetrized
Cartan matrix ``bilinear``, the forms that ``weyl.reflection_from_root`` and
the root permutations are checked against; the package itself only applies
simple reflections from the Cartan matrix.
``oracle_sigma_shift``, ``oracle_tau`` and ``oracle_translates`` are the
translation step done per edge: each edge looks up its reflection, its
target coset and the strings of M on the spot.  They are the route that the
package's walk over cached per-(z, P) step tables is checked against.
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
from nashblowup.weyl import WeylElement, bruhat_leq, identity, multiply, _right_mult


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
            nxt = _right_mult(u, i)
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
            nxt = _right_mult(w, i)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


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
def oracle_sigma_shift():
    return _oracle_sigma_shift


@pytest.fixture(scope="session")
def oracle_tau():
    return _oracle_tau


@pytest.fixture(scope="session")
def oracle_translates():
    return _oracle_translates


@pytest.fixture
def fresh_step_tables():
    """Empty the step tables and the graph memo before and after a test that
    patches what they are built from, so no patched table outlives it."""
    peterson._step_table.cache_clear()
    peterson.eventual_translates.cache_clear()
    yield
    peterson._step_table.cache_clear()
    peterson.eventual_translates.cache_clear()


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
