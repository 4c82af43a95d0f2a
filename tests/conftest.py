"""Shared fixtures.

The A3 datum (w = s1*s3*s2 inside the two-step flag variety given by
levi {1, 3}) is small enough to check by hand and rich enough to
exercise every code path: an empty kept-root set, a four-element fiber
over the identity, and a translation graph with a branch point.

``wp_fiber_search`` is a second route to a Nash fiber, kept here as an
oracle for ``nashcore.nash_fiber``: it never projects W^Q onto W^P.
"""

from collections import deque

import pytest

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
