"""Root system construction against closed-form counts and hand data."""

import pytest
from hypothesis import given, strategies as st

from nashblowup import rootsystem
from nashblowup.rootsystem import CartanType, format_root, root_system


# family, rank, number of positive roots, highest root
COUNTS = [
    ("A", 1, 1, (1,)),
    ("A", 2, 3, (1, 1)),
    ("A", 3, 6, (1, 1, 1)),
    ("A", 5, 15, (1, 1, 1, 1, 1)),
    ("B", 2, 4, (1, 2)),
    ("B", 3, 9, (1, 2, 2)),
    ("B", 4, 16, (1, 2, 2, 2)),
    ("C", 2, 4, (2, 1)),
    ("C", 3, 9, (2, 2, 1)),
    ("C", 4, 16, (2, 2, 2, 1)),
    ("D", 4, 12, (1, 2, 1, 1)),
    ("D", 5, 20, (1, 2, 2, 1, 1)),
    ("E", 6, 36, (1, 2, 2, 3, 2, 1)),
    ("E", 7, 63, (2, 2, 3, 4, 3, 2, 1)),
]


@pytest.mark.parametrize("family,rank,count,highest", COUNTS)
def test_positive_root_count_and_highest(family, rank, count, highest):
    rs = root_system(family, rank)
    assert len(rs.positive_roots) == count
    assert rs.highest_root == highest
    # the highest root dominates every positive root coordinatewise
    for beta in rs.positive_roots:
        assert all(b <= h for b, h in zip(beta, highest))


CLOSURE_TYPES = [
    (family, rank)
    for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for rank in range(lo, 11)
] + [("E", 6), ("E", 7)]


@pytest.mark.parametrize("family,rank", CLOSURE_TYPES)
def test_positive_roots_match_closure_oracle(positive_roots_closure, family, rank):
    # level by level against re-scanning every root; ranks 11..16 would add
    # about 3.5 s of oracle time (2-vCPU Xeon) and meet the same code path
    rs = root_system(family, rank)
    assert rs.positive_roots == positive_roots_closure(rs.cartan_matrix)


def test_highest_root_must_dominate(monkeypatch):
    # the last root is taken as the highest; here it is not, and is refused
    generate = rootsystem._generate_positives

    def last_two_swapped(cartan):
        roots = generate(cartan)
        return roots[:-2] + (roots[-1], roots[-2])

    monkeypatch.setattr(rootsystem, "_generate_positives", last_two_swapped)
    with pytest.raises(rootsystem.InvariantViolation, match="highest root"):
        rootsystem.RootSystem(CartanType("B", 3))


COMINUSCULE = {
    ("A", 4): {1, 2, 3, 4},
    ("B", 3): {1},
    ("C", 3): {3},
    ("D", 4): {1, 3, 4},
    ("D", 5): {1, 4, 5},
    ("E", 6): {1, 6},
    ("E", 7): {7},
}


@pytest.mark.parametrize("key,expected", sorted(COMINUSCULE.items()))
def test_cominuscule_simples(key, expected):
    family, rank = key
    rs = root_system(family, rank)
    assert set(rs.cominuscule_simples) == expected
    # cominuscule node <=> coefficient 1 in the highest root
    for i in range(1, rank + 1):
        flagged = i in rs.cominuscule_simples
        assert flagged == (rs.highest_root[i - 1] == 1)


@pytest.mark.parametrize("family,rank", [("F", 4), ("G", 2)])
def test_types_without_cominuscule_node_rejected(family, rank):
    with pytest.raises(ValueError):
        root_system(family, rank)


@pytest.mark.parametrize(
    "family,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 8), ("H", 3)]
)
def test_invalid_rank_rejected(family, rank):
    with pytest.raises(ValueError):
        root_system(family, rank)


def test_a3_positive_roots_explicit(a3):
    expected = {
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1), (1, 1, 1),
    }
    assert set(a3.positive_roots) == expected


def test_b3_positive_roots_explicit(b3):
    # short roots e_i and long roots e_i - e_j, e_i + e_j in coordinates
    expected = {
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1), (1, 1, 1),
        (0, 1, 2), (1, 1, 2), (1, 2, 2),
    }
    assert set(b3.positive_roots) == expected


def test_c3_pairing_asymmetry(pairing):
    rs = root_system("C", 3)
    a2 = rs.simple_root(2)
    a3 = rs.simple_root(3)
    assert pairing(rs, a2, a3) == -1
    assert pairing(rs, a3, a2) == -2
    # diagonal entries are always 2
    for i in range(1, 4):
        ai = rs.simple_root(i)
        assert pairing(rs, ai, ai) == 2


SYMMETRIZER_TYPES = (
    [("A", n) for n in range(1, 17)]
    + [(f, n) for f in "BC" for n in range(2, 17)]
    + [("D", n) for n in range(3, 17)]
    + [("E", 6), ("E", 7)]
)


@pytest.mark.parametrize("family,rank", SYMMETRIZER_TYPES)
def test_symmetrizer_symmetrizes_the_cartan_matrix(bilinear, family, rank):
    # every supported type up to rank 16: d_i a[i][j] = d_j a[j][i], and the
    # pairing it gives is the Cartan matrix on simple roots
    rs = root_system(family, rank)
    bil = bilinear(rs)
    assert all(bil[i][j] == bil[j][i] for i in range(rank) for j in range(rank))
    assert all(bil[i][i] > 0 for i in range(rank))


def test_pairing_of_simple_roots_is_the_cartan_matrix(pairing):
    # <alpha_j, alpha_i^vee> = a[i][j], the convention every module relies on
    for family, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("E", 7)]:
        rs = root_system(family, rank)
        for i, alpha in enumerate(rs.simple_roots):
            for j, beta in enumerate(rs.simple_roots):
                assert pairing(rs, beta, alpha) == rs.cartan_matrix[i][j]


def test_reflect_matches_pairing_formula(b3, pairing, reflect):
    for alpha in b3.positive_roots:
        for beta in b3.positive_roots:
            image = reflect(b3, alpha, beta)
            coeff = pairing(b3, beta, alpha)
            expected = tuple(b - coeff * a for b, a in zip(beta, alpha))
            assert image == expected
            assert b3.is_root(image)


def test_reflect_is_involution(b3, reflect):
    for alpha in b3.positive_roots:
        for beta in b3.positive_roots:
            assert reflect(b3, alpha, reflect(b3, alpha, beta)) == beta


def test_membership_predicates(a3):
    assert a3.is_root((1, 1, 0))
    assert (1, 1, 0) in a3.positive_roots
    assert (-1, -1, 0) in a3.negative_roots
    assert not a3.is_root((1, 0, 1))
    assert not a3.is_root((0, 0, 0))
    assert a3.is_simple((0, 1, 0))
    assert not a3.is_simple((1, 1, 0))


def test_support_and_levi(a3):
    assert a3.support((1, 1, 0)) == {1, 2}
    assert a3.in_levi((1, 0, 0), {1, 3})
    assert a3.in_levi((0, 0, -1), {1, 3})
    assert not a3.in_levi((1, 1, 0), {1, 3})


def test_format_root_strings():
    assert format_root((1, 0, 0)) == "a1"
    assert format_root((1, 2, 0)) == "a1+2a2"
    assert format_root((0, -1, -2)) == "-(a2+2a3)"
    assert format_root((-1, 0, 0)) == "-a1"
    assert format_root((1, 1, 1)) == "a1+a2+a3"


def test_dynkin_diagram_mentions_every_node():
    for family, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("E", 6)]:
        text = rootsystem.dynkin_diagram(CartanType(family, rank))
        for i in range(1, rank + 1):
            assert str(i) in text


def test_cartan_type_str():
    assert str(CartanType("A", 3)) == "A3"
    assert str(CartanType("E", 7)) == "E7"


@given(st.sampled_from(COUNTS))
def test_negatives_mirror_positives(params):
    family, rank, _, _ = params
    rs = root_system(family, rank)
    for beta in rs.positive_roots:
        neg = tuple(-c for c in beta)
        assert rs.is_root(neg)
        assert neg not in rs.positive_roots


@given(st.integers(min_value=2, max_value=5))
def test_a_rank_scaling(n):
    rs = root_system("A", n)
    assert len(rs.positive_roots) == n * (n + 1) // 2
    assert set(rs.cominuscule_simples) == set(range(1, n + 1))
