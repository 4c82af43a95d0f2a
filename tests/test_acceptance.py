"""Acceptance criteria, one test per criterion.

Each test prints a single verdict line so the suite log doubles as a
checklist.  Criterion 7 (the fiber-product comparison over all
covexillary permutations up to S6) goes beyond the cominuscule case the
paper covers, and the two counts do not always agree there; the test
pins the mismatch set the README documents (exactly the covexillary
permutations containing (5,2,3,4,1)), recomputing that set by pattern
containment, and prints the structured mismatch report in full.
"""

import itertools
import json
import time

import pytest

from nashblowup import (
    grassmann,
    nashcore,
    peterson,
    rootsystem,
    sweeps,
    weyl,
    zelevinsky,
)
from nashblowup.cli import main


def verdict(name: str, ok: bool, extra: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] {name}" + (f"  ({extra})" if extra else ""))


# -- criterion 1: the hand-checked A3 translation graph ---------------------

A1, A2, A3_ = (1, 0, 0), (0, 1, 0), (0, 0, 1)
A12, A23, A123 = (1, 1, 0), (0, 1, 1), (1, 1, 1)


def _neg(r):
    return tuple(-c for c in r)


EXPECTED_STATES = {
    ((3, 1, 2), frozenset({A1, A3_, A123})),
    ((1, 2), frozenset({A1, _neg(A3_), A12})),
    ((3, 2), frozenset({_neg(A1), A3_, A23})),
    ((2,), frozenset({_neg(A1), _neg(A3_), A2})),
    ((), frozenset({_neg(A12), _neg(A23), _neg(A123)})),
    ((), frozenset({_neg(A2), _neg(A23), _neg(A123)})),
    ((), frozenset({_neg(A2), _neg(A12), _neg(A123)})),
    ((), frozenset({_neg(A2), _neg(A12), _neg(A23)})),
}

EXPECTED_EDGES = {
    ((3, 1, 2), A3_, (1, 2)),
    ((3, 1, 2), A1, (3, 2)),
    ((3, 1, 2), A123, ()),
    ((1, 2), A1, (2,)),
    ((1, 2), A12, ()),
    ((3, 2), A3_, (2,)),
    ((3, 2), A23, ()),
    ((2,), A2, ()),
}


def test_criterion_1_a3_translation_graph():
    start = time.perf_counter()
    rs = rootsystem.root_system("A", 3)
    w = weyl.from_word(rs, [1, 3, 2])
    p = weyl.parabolic(1, 3)
    graph = peterson.eventual_translates(w, p)
    states = {(weyl.reduced_word(s.z), s.weights) for s in graph.nodes}
    edges = {
        (weyl.reduced_word(a.z), g, weyl.reduced_word(b.z))
        for a, g, b in graph.edges
    }
    elapsed = time.perf_counter() - start
    ok = states == EXPECTED_STATES and edges == EXPECTED_EDGES and elapsed < 1.0
    verdict("criterion 1: A3 example graph", ok, f"{elapsed * 1000:.0f}ms")
    assert states == EXPECTED_STATES
    assert edges == EXPECTED_EDGES
    assert elapsed < 1.0


# -- criterion 2: the Gr(3,8) worked example --------------------------------


def test_criterion_2_grassmannian_example():
    start = time.perf_counter()
    w, k, n = (2, 5, 7, 1, 3, 4, 6, 8), 3, 8
    vp = grassmann.grassmannian_max_rep(w, k)
    lam = grassmann.partition_of(w, k)
    coess_vp = {(b.p, b.q, b.r) for b in grassmann.coessential_set(vp)}
    corners = {
        (b.p, b.q, b.r) for b in grassmann.corner_boxes(lam, k, n)
    }
    delta = grassmann.delta_w_perm(w, k)
    vq = grassmann.max_coset_rep_perm(w, delta)
    formula = grassmann.coess_nash_formula(w, k)
    direct = grassmann.coessential_set(vq)
    cfg = grassmann.config_description(w, k)
    smooth = grassmann.nash_blowup_smooth(w, k)
    elapsed = time.perf_counter() - start

    checks = [
        vp == (7, 5, 2, 8, 6, 4, 3, 1),
        lam == (4, 3, 1),
        coess_vp == {(2, 3, 1), (5, 3, 2), (7, 3, 3)},
        corners == coess_vp,
        grassmann.inner_corners(lam, k, n) == frozenset({0, 1, 2}),
        delta == frozenset({5}),
        vq == (2, 5, 7, 1, 4, 3, 6, 8),
        formula == direct,
        {(b.p, b.q, b.r) for b in formula}
        == {(2, 1, 1), (2, 4, 2), (5, 2, 2), (5, 6, 5), (7, 7, 7)},
        cfg.flag_steps == (1, 2, 3, 4, 6, 7),
        cfg.condition_strings()
        == ["F_1 <= E_2 <= F_4", "F_2 <= E_5 <= F_6", "F_3 <= E_7 <= F_7"],
        smooth is False,
        elapsed < 1.0,
    ]
    verdict(
        "criterion 2: Gr(3,8) worked example",
        all(checks),
        f"{elapsed * 1000:.0f}ms",
    )
    assert all(checks), checks


# -- criteria 3 and 4: cominuscule sweeps -----------------------------------


def test_criterion_3_translate_bijection_sweep():
    out = sweeps.theorem2_sweep(max_rank_a=5, max_rank_bc=3, include_d4=True)
    verdict("criterion 3: translate bijection sweep", out.ok, out.summary())
    assert out.checked == 160
    assert out.ok, out.failures[:5]


def test_criterion_4_singular_locus_agreement():
    out = sweeps.singular_agreement_sweep(
        max_rank_a=5, max_rank_bc=3, include_d4=True
    )
    verdict("criterion 4: singular locus agreement", out.ok, out.summary())
    assert out.checked == 160
    assert out.ok, out.failures[:5]


# -- criteria 5 and 6: type-A closed forms ----------------------------------


def test_criterion_5_coessential_formula():
    out = sweeps.coess_formula_sweep(8)
    verdict("criterion 5: coessential closed form", out.ok, out.summary())
    assert out.checked == 466
    assert out.ok, out.failures[:5]


def test_criterion_6_fiber_product_counts():
    out = sweeps.fiberproduct_sweep(7)
    verdict("criterion 6: fiber product counts", out.ok, out.summary())
    assert out.checked == 240
    assert out.ok, out.failures[:5]


# -- criterion 7: the covexillary comparison --------------------------------


def contains_pattern(w, pattern) -> bool:
    """Some subsequence of w is order-isomorphic to the pattern."""
    m = len(pattern)
    return any(
        all(
            (sub[i] < sub[j]) == (pattern[i] < pattern[j])
            for i in range(m)
            for j in range(i + 1, m)
        )
        for sub in itertools.combinations(w, m)
    )


def test_criterion_7_covexillary_conjecture():
    """Compare chain-pair products with translate counts, S_n for n <= 6.

    The paper proves the bijection only for cominuscule varieties; past
    them the two counts can differ.  The test pins the documented
    outcome: no mismatch in S_4, and in S_5 and S_6 the mismatching w
    are exactly the covexillary (3412-avoiding) permutations containing
    (5,2,3,4,1), 1 and 20 of them, with the product above the translate
    count at every mismatching point.  The smallest case is
    w = (5,2,3,4,1): over the identity the two small resolutions
    contribute 4 x 4 = 16 fixed-point pairs while the translation
    process reaches only 8 states.  The expected set is recomputed here
    by pattern containment, not read off the sweep, and the structured
    report is printed so the mismatches are auditable; test_zelevinsky.py
    holds the per-point table and independent recounts of both sides.
    """
    outcomes = {n: sweeps.conjecture_sweep(n) for n in (4, 5, 6)}
    checked = {n: o.checked for n, o in outcomes.items()}
    found = {n: {tuple(f["w"]) for f in o.failures} for n, o in outcomes.items()}
    expected = {
        n: {
            w
            for w in itertools.permutations(range(1, n + 1))
            if not contains_pattern(w, (3, 4, 1, 2))
            and contains_pattern(w, (5, 2, 3, 4, 1))
        }
        for n in outcomes
    }
    points = [pt for o in outcomes.values() for f in o.failures for pt in f["points"]]
    checks = {
        "checked": checked == {4: 23, 5: 103, 6: 513},
        "pattern holders": {n: len(e) for n, e in expected.items()}
        == {4: 0, 5: 1, 6: 20},
        "mismatches are the pattern holders": found == expected,
        "product above translates": all(
            pt["product"] > pt["peterson_count"] for pt in points
        ),
    }
    ok = all(checks.values())
    verdict(
        "criterion 7: covexillary fiber-product comparison",
        ok,
        f"checked {sum(checked.values())}, "
        f"{sum(map(len, found.values()))} mismatching w",
    )
    print("structured mismatch report:")
    for o in outcomes.values():
        for failure in o.failures:
            print(json.dumps(failure, sort_keys=True))
    assert ok, (
        [name for name, good in checks.items() if not good],
        checked,
        {n: sorted(found[n] ^ expected[n]) for n in outcomes},
    )


# -- criterion 8: structural invariants -------------------------------------


def test_criterion_8a_fibers_partition_fixed_points(wp_fiber_search):
    bad = []
    for d in sweeps.cominuscule_data(max_rank_a=4, max_rank_bc=3):
        base = weyl.interval_min_reps(d.w, d.p)
        total = sum(len(nashcore.nash_fiber(v, d)) for v in base)
        if total != len(nashcore.nash_fixed_points(d)) or any(
            nashcore.nash_fiber(v, d) != wp_fiber_search(v, d) for v in base
        ):
            bad.append(d)
    verdict("criterion 8a: fibers partition the fixed points", not bad)
    assert not bad


def test_criterion_8b_translate_states_match_fixed_points():
    bad = []
    for d in sweeps.cominuscule_data(max_rank_a=4, max_rank_bc=3):
        graph = peterson.eventual_translates(d.w, d.p)
        if len(graph.nodes) != len(nashcore.nash_fixed_points(d)):
            bad.append(d)
    verdict("criterion 8b: translate count equals fixed points", not bad)
    assert not bad


def test_criterion_8c_cross_model_totals():
    # Gr(3,8) example: 120 blow-up fixed points, counted three ways
    rs = rootsystem.root_system("A", 7)
    w = (2, 5, 7, 1, 3, 4, 6, 8)
    p = weyl.ParabolicSubset(frozenset(range(1, 8)) - {3})
    d = nashcore.SchubertDatum(rs, p, grassmann.perm_to_weyl(rs, w))
    direct = len(nashcore.nash_fixed_points(d))
    report = zelevinsky.conjecture_check((7, 5, 2, 8, 6, 4, 3, 1))
    chains = sum(pt.product for pt in report.points)
    translates = sum(pt.peterson_count for pt in report.points)
    ok = direct == chains == translates == 120
    verdict("criterion 8c: cross-model totals", ok)
    assert ok, (direct, chains, translates)


def test_criterion_8d_json_determinism():
    rs = rootsystem.root_system("A", 3)
    w = weyl.from_word(rs, [1, 3, 2])
    p = weyl.parabolic(1, 3)
    first = json.dumps(
        peterson.graph_to_json(peterson.eventual_translates(w, p)),
        sort_keys=True,
    )
    second = json.dumps(
        peterson.graph_to_json(peterson.eventual_translates(w, p)),
        sort_keys=True,
    )
    ok = first == second
    verdict("criterion 8d: serialization determinism", ok)
    assert ok


def test_criterion_8e_exit_code_contract(capsys):
    codes = (
        main(["nash", "--type", "A", "--rank", "3", "--levi", "1,3",
              "--word", "1,3,2"]),
        main(["conjecture", "--perm", "52341"]),
        main(["nash", "--type", "F", "--rank", "4", "--levi", "1",
              "--word", "1"]),
    )
    capsys.readouterr()
    ok = codes == (0, 1, 2)
    verdict("criterion 8e: exit code contract", ok, str(codes))
    assert ok
