"""Type A specialization: permutations, coessential boxes, the closed form.

The running example is w = (2,5,7,1,3,4,6,8) in Gr(3,8), whose partition
is (4,3,1).  All constants below were computed by hand from the rank
definitions and cross-checked against the Weyl-group model.
"""

import doctest
import itertools
import random

import pytest

from nashblowup import grassmann, rootsystem, weyl
from nashblowup.grassmann import (
    CoessBox,
    check_permutation,
    coess_nash_formula,
    coessential_set,
    config_description,
    corner_boxes,
    defined_by_inclusions,
    delta_w_perm,
    descent_set,
    grassmannian_descent,
    grassmannian_max_rep,
    inner_corners,
    is_covexillary,
    is_grassmannian,
    max_coset_rep_perm,
    min_coset_rep_perm,
    nash_blowup_smooth,
    partition_of,
    perm_to_weyl,
    rank_number,
    weyl_to_perm,
)
from nashblowup.cli import main
from nashblowup.rootsystem import InvariantViolation

W_EX = (2, 5, 7, 1, 3, 4, 6, 8)
K_EX = 3
VP_EX = (7, 5, 2, 8, 6, 4, 3, 1)
VQ_EX = (2, 5, 7, 1, 4, 3, 6, 8)


def boxes(items):
    return frozenset(CoessBox(p, q, r) for p, q, r in items)


def test_check_permutation():
    assert check_permutation((2, 1, 3)) == 3
    for bad in [(1, 1, 2), (0, 1, 2), (1, 3), (2, 3, 4)]:
        with pytest.raises(ValueError):
            check_permutation(bad)


def test_descents_and_grassmannian():
    assert descent_set(W_EX) == frozenset({3})
    assert is_grassmannian(W_EX, 3)
    assert not is_grassmannian(W_EX, 2)
    assert grassmannian_descent(W_EX) == 3
    assert grassmannian_descent((1, 2, 3)) == 0  # identity: no descent at all
    assert grassmannian_descent((3, 1, 4, 2)) is None  # two descents


def test_perm_weyl_roundtrip_s4():
    rs = rootsystem.root_system("A", 3)
    for p in itertools.permutations((1, 2, 3, 4)):
        w = perm_to_weyl(rs, p)
        assert weyl_to_perm(w) == p
        inversions = sum(
            1
            for i, j in itertools.combinations(range(4), 2)
            if p[i] > p[j]
        )
        assert w.length == inversions


def test_perm_weyl_roundtrip_s6():
    rs = rootsystem.root_system("A", 5)
    elements = set()
    for p in itertools.permutations(range(1, 7)):
        w = perm_to_weyl(rs, p)
        assert weyl_to_perm(w) == p
        elements.add(w)
    assert len(elements) == 720  # all of W(A5): every element is read back


def test_perm_to_weyl_matches_word_route(perm_to_weyl_by_word):
    # the one-table image is the interned element a reduced word reaches
    for n in range(2, 8):
        rs = rootsystem.root_system("A", n - 1)
        for p in itertools.permutations(range(1, n + 1)):
            assert perm_to_weyl(rs, p) is perm_to_weyl_by_word(rs, p)
    # A16 has 272 roots: its tables are tuples, not bytes
    rs = rootsystem.root_system("A", 16)
    rng = random.Random(17)
    for _ in range(50):
        p = tuple(rng.sample(range(1, 18), 17))
        w = perm_to_weyl(rs, p)
        assert type(w.perm) is tuple
        assert w is perm_to_weyl_by_word(rs, p)


def test_weyl_to_perm_rejects_inconsistent_action():
    # a table sending alpha_1 and alpha_2 both to e1 - e2 is no permutation
    rs = rootsystem.root_system("A", 2)
    perm = bytearray(weyl.identity(rs).perm)
    perm[rs.index[(0, 1)]] = rs.index[(1, 0)]
    with pytest.raises(ValueError, match="inconsistent"):
        weyl_to_perm(weyl.WeylElement(rs, bytes(perm)))


def test_perm_weyl_respects_product():
    rs = rootsystem.root_system("A", 3)
    s2 = weyl.simple_reflection(rs, 2)
    w = perm_to_weyl(rs, (2, 1, 4, 3))
    # right multiplication by s_i swaps positions i, i+1
    assert weyl_to_perm(weyl.multiply(w, s2)) == (2, 4, 1, 3)


def test_rank_number_definition():
    # r(p, q) counts entries among the first q positions with value <= p
    w = (3, 1, 4, 2)
    for p in range(1, 5):
        for q in range(1, 5):
            direct = sum(1 for i in range(q) if w[i] <= p)
            assert rank_number(w, p, q) == direct


def test_coessential_set_golden():
    assert coessential_set(VP_EX) == boxes(
        [(2, 3, 1), (5, 3, 2), (7, 3, 3)]
    )
    assert coessential_set((5, 2, 3, 4, 1)) == boxes(
        [(2, 2, 1), (3, 3, 2)]
    )
    # identity: the diagonal rank conditions r(i, i) = i cut out the point
    assert coessential_set((1, 2, 3, 4, 5)) == boxes(
        [(i, i, i) for i in range(1, 5)]
    )
    # the longest element: no conditions at all
    assert coessential_set((4, 3, 2, 1)) == frozenset()


def test_coessential_set_matches_the_definition():
    # every (p, q) of the definition, not only the ascents q that the
    # package visits, on all of S_2..S_6
    for n in range(2, 7):
        for w in itertools.permutations(range(1, n + 1)):
            inv = [w.index(v) + 1 for v in range(1, n + 1)]
            want = {
                CoessBox(p, q, rank_number(w, p, q))
                for p in range(1, n)
                for q in range(1, n)
                if inv[p - 1] <= q < inv[p] and w[q - 1] <= p < w[q]
            }
            assert coessential_set(w) == want, w


def test_partition_and_corners():
    lam = partition_of(W_EX, K_EX)
    assert lam == (4, 3, 1)
    assert inner_corners(lam, K_EX, 8) == frozenset({0, 1, 2})
    assert corner_boxes(lam, K_EX, 8) == coessential_set(VP_EX)


def test_partition_of_identity():
    assert partition_of((1, 2, 3, 4), 2) == (0, 0)


def test_full_rectangle_partition():
    # the filled k x (n-k) box describes the whole Grassmannian: no corners
    w = (3, 4, 1, 2)
    assert partition_of(w, 2) == (2, 2)
    assert inner_corners((2, 2), 2, 4) == frozenset()
    assert corner_boxes((2, 2), 2, 4) == frozenset()


def test_coset_reps_perm():
    levi = frozenset({1, 2, 4, 5, 6, 7})  # omit the descent column 3
    assert min_coset_rep_perm(VP_EX, levi) == W_EX
    assert max_coset_rep_perm(W_EX, levi) == VP_EX
    assert grassmannian_max_rep(W_EX, K_EX) == VP_EX
    # projections are idempotent
    assert min_coset_rep_perm(W_EX, levi) == W_EX
    assert max_coset_rep_perm(VP_EX, levi) == VP_EX


def test_delta_and_nash_rep():
    assert delta_w_perm(W_EX, K_EX) == frozenset({5})
    assert max_coset_rep_perm(W_EX, frozenset({5})) == VQ_EX


def test_coess_nash_formula_golden():
    expected = boxes(
        [(2, 1, 1), (2, 4, 2), (5, 2, 2), (5, 6, 5), (7, 7, 7)]
    )
    assert coess_nash_formula(W_EX, K_EX) == expected
    assert coessential_set(VQ_EX) == expected


def test_coess_nash_formula_matches_direct_small():
    for n in (3, 4, 5):
        for k in range(1, n):
            for cols in itertools.combinations(range(1, n + 1), k):
                rest = [c for c in range(1, n + 1) if c not in cols]
                w = tuple(list(cols) + rest)
                if w == tuple(range(1, n + 1)):
                    continue
                vq = max_coset_rep_perm(w, delta_w_perm(w, k))
                assert coess_nash_formula(w, k) == coessential_set(vq)


def test_config_description_golden():
    cfg = config_description(W_EX, K_EX)
    assert cfg.n == 8
    assert cfg.k == 3
    assert cfg.flag_steps == (1, 2, 3, 4, 6, 7)
    assert cfg.conditions == ((1, 2, 4), (2, 5, 6), (3, 7, 7))
    assert cfg.condition_strings() == [
        "F_1 <= E_2 <= F_4",
        "F_2 <= E_5 <= F_6",
        "F_3 <= E_7 <= F_7",
    ]
    assert cfg.top_degenerate
    assert not cfg.bottom_degenerate
    payload = cfg.to_json()
    assert payload["conditions_pretty"] == cfg.condition_strings()


def test_config_description_rejects_identity():
    with pytest.raises(ValueError):
        config_description((1, 2, 3, 4), 2)


def test_config_description_rejects_a_box_off_column_k(monkeypatch, capsys):
    # every coessential box of the maximal representative sits in column k;
    # a box elsewhere is a broken invariant, also under python -O
    off = frozenset({CoessBox(2, K_EX + 1, 1)})
    monkeypatch.setattr(grassmann, "coessential_set", lambda p: off)
    with pytest.raises(InvariantViolation):
        config_description(W_EX, K_EX)
    assert main(["grassmann", "--perm", "25713468"]) == 1
    assert capsys.readouterr().err.startswith("invariant violated:")


def test_nash_blowup_smooth_cases():
    assert not nash_blowup_smooth(W_EX, K_EX)
    # a single box whose condition is an inclusion gives a smooth blow-up
    assert nash_blowup_smooth((1, 3, 2, 4), 2)
    assert nash_blowup_smooth((3, 4, 1, 2), 2)


def test_smoothness_routes_agree_exhaustive():
    """Box counting and the covexillarity route never disagree, Gr(k,n<=6).

    nash_blowup_smooth computes both and raises on any mismatch, so a
    clean pass over every Grassmannian permutation is the whole check.
    Note this is smoothness of the blow-up, not of the variety: the
    variety for (2,4,1,3) is singular while its blow-up is smooth.
    """
    for n in (3, 4, 5, 6):
        for k in range(1, n):
            for cols in itertools.combinations(range(1, n + 1), k):
                rest = [c for c in range(1, n + 1) if c not in cols]
                w = tuple(list(cols) + rest)
                nash_blowup_smooth(w, k)
    assert nash_blowup_smooth((2, 4, 1, 3), 2)


def test_bruhat_perm_matches_weyl(bruhat_leq_perm):
    rs = rootsystem.root_system("A", 3)
    perms = list(itertools.permutations((1, 2, 3, 4)))
    els = {p: perm_to_weyl(rs, p) for p in perms}
    for u in perms:
        for v in perms:
            assert bruhat_leq_perm(u, v) == weyl.bruhat_leq(els[u], els[v])


def test_covexillary_recognition():
    assert is_covexillary((5, 2, 3, 4, 1))
    assert is_covexillary((2, 4, 1, 3))
    assert is_covexillary((1, 2, 3))
    assert not is_covexillary((3, 4, 1, 2))  # the pattern itself
    assert not is_covexillary(W_EX)  # contains 3412 via (5,7,1,3)


def test_inclusion_boxes():
    # box (p, q, r) encodes an inclusion when r = min(p, q)
    assert defined_by_inclusions((1, 3, 2, 4))
    assert not defined_by_inclusions((5, 2, 3, 4, 1))


def test_coessbox_validation():
    with pytest.raises(ValueError):
        CoessBox(0, 1, 0)
    with pytest.raises(ValueError):
        CoessBox(2, 2, 3)  # rank exceeds both sides


def test_module_doctests():
    for module in (grassmann, rootsystem):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
