"""Weyl group arithmetic checked against independent oracles.

The Bruhat order test re-derives the order from the subword property
(v <= w iff v is a product of some subsequence of a reduced word of w)
and compares the result pairwise over whole groups.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nashblowup import grassmann, peterson, rootsystem, weyl
from nashblowup.weyl import (
    ParabolicSubset,
    bruhat_leq,
    format_word,
    from_word,
    identity,
    interval_min_reps,
    inverse,
    left_inversions,
    longest_element,
    lower_interval,
    max_coset_rep,
    min_coset_rep,
    multiply,
    parabolic,
    reduced_word,
    reflection_from_root,
    simple_reflection,
)


def test_simple_reflection_action(a3):
    s1 = simple_reflection(a3, 1)
    assert s1((1, 0, 0)) == (-1, 0, 0)
    assert s1((0, 1, 0)) == (1, 1, 0)
    assert s1((0, 0, 1)) == (0, 0, 1)
    assert s1.length == 1


def test_simple_reflection_checks_its_images():
    # a fresh system, not the interned A3, with a wrong Cartan row:
    # s1(alpha_2) = alpha_2 + 2 alpha_1 is not a root
    rs = rootsystem.RootSystem(rootsystem.CartanType("A", 3))
    rs.cartan_matrix = ((2, -2, 0),) + rs.cartan_matrix[1:]
    with pytest.raises(rootsystem.InvariantViolation, match="s1 sent"):
        simple_reflection(rs, 1)
    with pytest.raises(ValueError):
        simple_reflection(rs, 4)


def test_braid_relation(a3):
    lhs = from_word(a3, [1, 2, 1])
    rhs = from_word(a3, [2, 1, 2])
    assert lhs == rhs
    assert lhs.length == 3


def test_commuting_relation(a3):
    assert from_word(a3, [1, 3]) == from_word(a3, [3, 1])


def test_identity_properties(a3):
    e = identity(a3)
    assert e.length == 0
    assert reduced_word(e) == ()
    assert left_inversions(e) == frozenset()


def test_word_roundtrip_s4(a3, weyl_group):
    for w in weyl_group(a3):
        assert from_word(a3, reduced_word(w)) == w
        assert len(reduced_word(w)) == w.length


def test_word_roundtrip_b3(b3, weyl_group):
    for w in weyl_group(b3):
        assert from_word(b3, reduced_word(w)) == w


def test_group_orders(weyl_group):
    assert len(weyl_group(rootsystem.root_system("A", 3))) == 24
    assert len(weyl_group(rootsystem.root_system("B", 3))) == 48
    assert len(weyl_group(rootsystem.root_system("C", 2))) == 8
    assert len(weyl_group(rootsystem.root_system("D", 4))) == 192


def test_longest_element_properties(a3, b3):
    for rs in (a3, b3):
        w0 = longest_element(rs)
        assert w0.length == len(rs.positive_roots)
        assert multiply(w0, w0) == identity(rs)
        # w0 sends every positive root to a negative one
        assert left_inversions(w0) == frozenset(rs.positive_roots)


def test_inverse_and_length(b3, weyl_group):
    for w in weyl_group(b3):
        assert w.length == inverse(w).length
        assert multiply(w, inverse(w)) == identity(b3)


def test_left_inversions_golden(a3, a3_w):
    assert left_inversions(a3_w) == frozenset(
        {(1, 0, 0), (0, 0, 1), (1, 1, 1)}
    )


def test_left_inversion_count_is_length(b3, weyl_group):
    for w in weyl_group(b3):
        assert len(left_inversions(w)) == w.length


def test_left_inversions_p_excludes_levi(a3, a3_parabolic):
    # LInv^P(w0) = w0(R^- minus R_L^-) intersected with R^+
    w0 = longest_element(a3)
    ambient = peterson.mask_roots(a3, peterson.ambient_weights(w0, a3_parabolic))
    out = {g for g in ambient if g in a3.positive_roots}
    assert (1, 0, 0) not in out
    assert (0, 0, 1) not in out
    assert (0, 1, 0) in out
    assert len(out) == 4


def _subword_products(rs, word):
    """All elements reachable as subwords; the classical Bruhat oracle."""
    found = {identity(rs)}
    for letter in word:
        s = simple_reflection(rs, letter)
        found |= {multiply(w, s) for w in found}
    return found


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_bruhat_matches_subword_oracle(family, rank, weyl_group):
    rs = rootsystem.root_system(family, rank)
    group = sorted(weyl_group(rs), key=lambda w: (w.length, reduced_word(w)))
    below = {w: _subword_products(rs, reduced_word(w)) for w in group}
    for v, w in itertools.product(group, group):
        assert bruhat_leq(v, w) == (v in below[w])


def test_bruhat_rejects_mixed_systems(a3, b3):
    with pytest.raises(ValueError):
        bruhat_leq(identity(a3), identity(b3))


def test_lower_interval_counts(a3, b3):
    assert len(lower_interval(longest_element(a3))) == 24
    assert len(lower_interval(longest_element(b3))) == 48
    w = from_word(a3, [1, 3, 2])
    assert len(lower_interval(w)) == 8


def test_min_coset_rep_properties(a3, a3_parabolic, weyl_group):
    reps = set()
    for w in weyl_group(a3):
        rep = min_coset_rep(w, a3_parabolic)
        assert bruhat_leq(rep, w)
        # same coset: rep^-1 w lies in the levi subgroup
        diff = multiply(inverse(rep), w)
        assert all(
            a3.in_levi(b, a3_parabolic.levi) for b in left_inversions(diff)
        )
        assert weyl.is_min_coset_rep(rep, a3_parabolic)
        reps.add(rep)
    assert len(reps) == 6  # |S4| / |S2 x S2|


def test_max_coset_rep_properties(a3, a3_parabolic, weyl_group):
    # max rep = min rep times the longest levi element, here of length 2
    for w in weyl_group(a3):
        lo = min_coset_rep(w, a3_parabolic)
        hi = max_coset_rep(w, a3_parabolic)
        assert bruhat_leq(lo, hi)
        assert hi.length == lo.length + 2


def test_interval_min_reps_full_group(a3, a3_parabolic):
    w0 = longest_element(a3)
    reps = interval_min_reps(w0, a3_parabolic)
    assert len(reps) == 6
    for rep in reps:
        assert weyl.is_min_coset_rep(rep, a3_parabolic)


def test_interval_min_reps_golden(a3, a3_w, a3_parabolic):
    reps = interval_min_reps(a3_w, a3_parabolic)
    words = sorted(reduced_word(v) for v in reps)
    assert words == [(), (1, 2), (2,), (3, 1, 2), (3, 2)]


IDEAL_TYPES = [("A", 4), ("B", 3), ("C", 3), ("D", 4)]


@st.composite
def _element_and_levi(draw):
    family, rank = draw(st.sampled_from(IDEAL_TYPES))
    rs = rootsystem.root_system(family, rank)
    word = draw(st.lists(st.integers(min_value=1, max_value=rank), max_size=14))
    levi = draw(st.sets(st.integers(min_value=1, max_value=rank)))
    return rs, from_word(rs, word), ParabolicSubset(frozenset(levi))


@settings(max_examples=80, deadline=None)
@given(_element_and_levi())
def test_interval_min_reps_matches_group_filter(weyl_group, case):
    rs, w, p = case
    expected = {
        v for v in weyl_group(rs) if weyl.is_min_coset_rep(v, p) and bruhat_leq(v, w)
    }
    assert interval_min_reps(w, p) == expected
    if not p.levi:
        assert lower_interval(w) == expected


def test_ideal_of_incomparable_tops_is_the_union():
    rs = rootsystem.root_system("B", 3)
    levi = frozenset({2})
    reps = sorted(
        interval_min_reps(longest_element(rs), ParabolicSubset(levi)),
        key=lambda v: (v.length, reduced_word(v)),
    )
    pairs = [
        (u, v)
        for u, v in itertools.combinations(reps, 2)
        if not bruhat_leq(u, v) and not bruhat_leq(v, u)
    ]
    assert len(pairs) > 10
    for u, v in pairs:
        below_u = weyl._ideal(frozenset({u}), levi)
        below_v = weyl._ideal(frozenset({v}), levi)
        assert weyl._ideal(frozenset({u, v}), levi) == below_u | below_v


def _order(rs, levi):
    """|W_levi| by Macdonald's formula: the product over the positive roots
    of the Levi of (ht a + 1) / ht a."""
    order = Fraction(1)
    for a in rs.positive_roots:
        if rs.in_levi(a, levi):
            order *= Fraction(sum(a) + 1, sum(a))
    assert order.denominator == 1
    return order.numerator


def _quotient_size(rs, p):
    group_order = _order(rs, range(1, rs.rank + 1))
    levi_order = _order(rs, p.levi)
    assert group_order % levi_order == 0
    return group_order // levi_order


def test_interval_min_reps_counts_maximal_quotients():
    rs = rootsystem.root_system("E", 6)
    w0 = longest_element(rs)
    for node in range(1, 7):
        p = ParabolicSubset(frozenset(range(1, 7)) - {node})
        assert len(interval_min_reps(w0, p)) == _quotient_size(rs, p)
    rs = rootsystem.root_system("E", 7)
    p7 = ParabolicSubset(frozenset(range(1, 7)))
    assert len(interval_min_reps(longest_element(rs), p7)) == _quotient_size(rs, p7) == 56


def test_reflection_from_root(b3):
    for alpha in b3.positive_roots:
        r = reflection_from_root(b3, alpha)
        assert r(alpha) == tuple(-c for c in alpha)
        assert multiply(r, r) == identity(b3)
        assert r.length % 2 == 1


CONJUGATION_TYPES = (
    [("A", n) for n in range(1, 8)]
    + [(f, n) for f in "BC" for n in range(2, 6)]
    + [("D", n) for n in range(4, 7)]
    + [("E", 6), ("E", 7)]
)


@pytest.mark.parametrize("family,rank", CONJUGATION_TYPES)
def test_reflection_by_conjugation_matches_reflect(reflect, family, rank):
    # only simple reflections come from the Cartan matrix; every other r_alpha
    # is a product s_i r_{s_i alpha} s_i, checked here on every root against
    # the reflection by the pairing
    rs = rootsystem.root_system(family, rank)
    for alpha in rs.roots:
        r = reflection_from_root(rs, alpha)
        assert [rs.roots[j] for j in r.perm] == [reflect(rs, alpha, b) for b in rs.roots]


def test_parabolic_validation(a3):
    with pytest.raises(ValueError):
        interval_min_reps(identity(a3), ParabolicSubset(frozenset({7})))


def test_format_word():
    assert format_word(()) == "e"
    assert format_word((3, 1, 2)) == "s3s1s2"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=8))
def test_word_length_bounds(word):
    rs = rootsystem.root_system("B", 3)
    w = from_word(rs, word)
    assert w.length <= len(word)
    assert (w.length - len(word)) % 2 == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), max_size=6),
    st.lists(st.integers(min_value=1, max_value=3), max_size=6),
)
def test_inverse_antihomomorphism(word_u, word_v):
    rs = rootsystem.root_system("A", 3)
    u, v = from_word(rs, word_u), from_word(rs, word_v)
    assert inverse(multiply(u, v)) == multiply(inverse(v), inverse(u))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=7))
def test_bruhat_reflexive_and_bounded(word):
    rs = rootsystem.root_system("A", 3)
    w = from_word(rs, word)
    assert bruhat_leq(w, w)
    assert bruhat_leq(identity(rs), w)
    assert bruhat_leq(w, longest_element(rs))


# -- the root permutation against the action matrix --------------------------
#
# The matrix below is the representation the package used before elements
# became permutations of the root set: column j holds the simple-root
# coordinates of w(alpha_j), and s_i(alpha_j) = alpha_j - a[i][j] alpha_i.

ORACLE_TYPES = [("A", 7), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("E", 7)]


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def _apply(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(v)))


def _matrix_of_word(rs, word):
    n = rs.rank
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for letter in word:
        s = [[int(r == j) for j in range(n)] for r in range(n)]
        for j in range(n):
            s[letter - 1][j] -= rs.cartan_matrix[letter - 1][j]
        m = _matmul(m, s)
    return m


def _assert_matches_matrix(rs, w, m):
    neg = set(rs.negative_roots)
    for b in rs.roots:
        assert w(b) == _apply(m, b)
    assert w.length == sum(1 for b in rs.positive_roots if _apply(m, b) in neg)
    cols = [tuple(row[j] for row in m) for j in range(rs.rank)]
    for j, col in enumerate(cols, start=1):
        assert w.column(j) == col
    assert weyl.right_descents(w) == frozenset(
        j for j, col in enumerate(cols, start=1) if any(c < 0 for c in col)
    )


@st.composite
def _system_and_words(draw):
    family, rank = draw(st.sampled_from(ORACLE_TYPES))
    letters = st.lists(st.integers(min_value=1, max_value=rank), max_size=30)
    return rootsystem.root_system(family, rank), draw(letters), draw(letters)


@settings(max_examples=60, deadline=None)
@given(_system_and_words())
def test_permutation_matches_matrix_oracle(case):
    rs, word_u, word_v = case
    u, v = from_word(rs, word_u), from_word(rs, word_v)
    mu, mv = _matrix_of_word(rs, word_u), _matrix_of_word(rs, word_v)
    _assert_matches_matrix(rs, u, mu)
    _assert_matches_matrix(rs, multiply(u, v), _matmul(mu, mv))
    _assert_matches_matrix(rs, inverse(u), _matrix_of_word(rs, reversed(word_u)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_TYPES), st.integers(min_value=0))
def test_reflection_from_root_matches_matrix(pairing, spec, pick):
    rs = rootsystem.root_system(*spec)
    gamma = rs.roots[pick % len(rs.roots)]
    n = rs.rank
    # column j is alpha_j - <alpha_j, gamma^vee> gamma
    cols = []
    for a in rs.simple_roots:
        c = pairing(rs, a, gamma)
        cols.append(tuple(x - c * g for x, g in zip(a, gamma)))
    m = [[cols[j][i] for j in range(n)] for i in range(n)]
    _assert_matches_matrix(rs, reflection_from_root(rs, gamma), m)


def test_tuple_tables_beyond_256_roots():
    # A16 has 272 roots, too many for byte-sized indices; E7 has 126
    rs = rootsystem.root_system("A", 16)
    assert len(rs.roots) > 256
    assert isinstance(identity(rs).perm, tuple)
    assert isinstance(identity(rootsystem.root_system("E", 7)).perm, bytes)
    word_u = [8, 7, 9, 8, 16, 1, 2, 3, 15, 14, 8]
    word_v = [16, 15, 14, 13, 12, 11, 10, 9, 8]
    u, v = from_word(rs, word_u), from_word(rs, word_v)
    assert from_word(rs, reduced_word(u)) == u
    assert len(reduced_word(u)) == u.length
    m = _matmul(_matrix_of_word(rs, word_u), _matrix_of_word(rs, word_v))
    _assert_matches_matrix(rs, multiply(u, v), m)


@pytest.mark.parametrize(
    "spec", ORACLE_TYPES + [("A", 16)], ids=lambda spec: "%s%d" % spec
)
def test_products_keep_the_table_type(spec):
    # bytes tables compose by translate and tuple tables (A16) by map; both
    # must give the plain composition u(v(x)), in the table type of the system
    rs = rootsystem.root_system(*spec)
    pack = tuple if spec == ("A", 16) else bytes
    n = rs.rank
    words = [range(1, n + 1), range(n, 0, -1), [1, n, 1, 2, n - 1], [n, 2, 1, 3]]
    elements = [identity(rs), longest_element(rs)]
    elements += [from_word(rs, word) for word in words]
    for u in elements:
        assert type(u.perm) is pack
        assert type(inverse(u).perm) is pack
        assert multiply(u, identity(rs)) is u  # products stay interned
        for v in elements:
            uv = multiply(u, v)
            assert type(uv.perm) is pack
            assert uv.perm == pack(map(u.perm.__getitem__, v.perm))


def test_applying_to_a_non_root_raises(a3, a3_w):
    for vector in [(2, 0, 0), (0, 0, 0), (1, 0, 1)]:
        with pytest.raises(ValueError):
            a3_w(vector)


def test_element_set_order_ignores_hash_seed():
    # bytes hashes follow PYTHONHASHSEED; element hashes must not, so a set
    # of elements iterates in the same order in every process
    script = (
        "from nashblowup import rootsystem, weyl\n"
        "rs = rootsystem.root_system('D', 4)\n"
        "w0 = weyl.longest_element(rs)\n"
        "print([weyl.reduced_word(w) for w in set(weyl.lower_interval(w0))])\n"
    )
    src = str(Path(weyl.__file__).resolve().parents[1])
    outputs = []
    for seed in (0, 12345):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_wrong_product_raises_instead_of_hanging():
    # tables composed in the wrong order send the descent walk of
    # longest_element in circles; the walk is capped at the longest length.
    # The walks compose raw tables through weyl._compose, so that is what
    # is swapped.  A child process keeps the wrong cache entries out of this one.
    script = (
        "from nashblowup import rootsystem, weyl\n"
        "right = weyl._compose\n"
        "weyl._compose = lambda outer, inner: right(inner, outer)\n"
        "try:\n"
        "    weyl.longest_element(rootsystem.root_system('A', 3))\n"
        "except rootsystem.InvariantViolation as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = str(Path(weyl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: descent walk"), proc.stdout


A16_LEVIS = [frozenset(range(1, 17)) - {2}, frozenset(range(2, 16))]


@pytest.mark.parametrize("levi", A16_LEVIS, ids=["omit 2", "omit 1,16"])
def test_tuple_table_walks_match_the_oracles(
    levi, descent_walk, min_reps_perm, bruhat_leq_perm
):
    # A16 has 272 roots, so its tables are tuples: the ideal walk, the
    # descent walks and from_word all take the map branch of weyl._compose
    rs = rootsystem.root_system("A", 16)
    p = ParabolicSubset(levi)
    word = [2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 7, 6, 8, 7, 9, 8, 16, 15, 14, 13, 12, 11]
    u = from_word(rs, word + [10, 9, 1, 16])
    assert type(u.perm) is tuple
    for w in (u, inverse(u), multiply(u, u)):
        word = reduced_word(w)
        end, steps = descent_walk(w, range(1, 17), True)
        assert end == identity(rs) and word == tuple(reversed(steps))
        assert len(word) == w.length and from_word(rs, word) == w
        lo, hi = min_coset_rep(w, p), max_coset_rep(w, p)
        assert lo == descent_walk(w, levi, True)[0]
        assert hi == descent_walk(w, levi, False)[0]
        perm = grassmann.weyl_to_perm(w)
        assert grassmann.weyl_to_perm(lo) == grassmann.min_coset_rep_perm(perm, levi)
        assert grassmann.weyl_to_perm(hi) == grassmann.max_coset_rep_perm(perm, levi)
        ideal = interval_min_reps(w, p)
        top = grassmann.weyl_to_perm(lo)
        below = {v for v in min_reps_perm(17, levi) if bruhat_leq_perm(v, top)}
        assert {grassmann.weyl_to_perm(v) for v in ideal} == below
        assert all(bruhat_leq(v, lo) for v in ideal)
        assert all(type(v.perm) is tuple for v in ideal)
