"""Shared fixtures.

The A3 datum (w = s1*s3*s2 inside the two-step flag variety given by
levi {1, 3}) is small enough to check by hand and rich enough to
exercise every code path: an empty kept-root set, a four-element fiber
over the identity, and a translation graph with a branch point.

``wp_fiber_search`` is a second route to a Nash fiber, kept here as an
oracle for ``nashcore.nash_fiber``: it never projects W^Q onto W^P.
``weyl_group``, ``min_reps_perm`` and ``bruhat_leq_perm`` list whole groups
or quotients and filter them, the brute-force routes that the W^P walk
``weyl.interval_min_reps`` is checked against.  ``positive_roots_closure``
re-scans every known root until none is added, the route that the
level-by-level ``rootsystem._generate_positives`` is checked against.
"""

from collections import deque

import pytest

from itertools import combinations

from nashblowup import grassmann
from nashblowup import nashcore
from nashblowup import rootsystem
from nashblowup import weyl
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


@pytest.fixture(scope="session")
def positive_roots_closure():
    return _positive_roots_closure


@pytest.fixture(scope="session")
def weyl_group():
    return _weyl_group


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
