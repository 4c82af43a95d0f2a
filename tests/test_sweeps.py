"""Exhaustive verification drivers, run here at reduced bounds.

The full acceptance bounds live in test_acceptance; these tests pin the
enumeration sizes and the outcome bookkeeping so a silent change in the
iteration space cannot slip through.
"""

import json
from collections import Counter
from itertools import permutations

import pytest

from nashblowup import (
    cli,
    grassmann,
    nashcore,
    peterson,
    rootsystem,
    sweeps,
    weyl,
    zelevinsky,
)
from nashblowup.rootsystem import CartanType, InvariantViolation
from nashblowup.sweeps import (
    DEFAULT_TYPES,
    SweepOutcome,
    cominuscule_data,
    cominuscule_sweep,
    conjecture_sweep,
    coess_formula_sweep,
    covexillary_perms,
    fiberproduct_sweep,
    grassmannian_perms,
    singular_agreement_sweep,
    theorem2_sweep,
)


def test_grassmannian_perm_enumeration():
    got = list(grassmannian_perms(4, 2))
    assert got == [
        (1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3),
        (2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2),
    ]
    assert len(list(grassmannian_perms(6, 3))) == 20


def test_covexillary_enumeration_counts():
    # everything in S3; S4 loses only the pattern itself
    assert sum(1 for _ in covexillary_perms(3)) == 6
    assert sum(1 for _ in covexillary_perms(4)) == 23
    assert sum(1 for _ in covexillary_perms(5)) == 103
    # the direct 3412-avoiding build lists what filtering S_n by sortable
    # boxes lists, in the same lexicographic order
    counts = []
    for n in range(1, 8):
        direct = list(covexillary_perms(n))
        assert direct == [
            w for w in permutations(range(1, n + 1)) if grassmann.is_covexillary(w)
        ]
        counts.append(len(direct))
    assert counts == [1, 2, 6, 23, 103, 513, 2761]


def _types(spec):
    """'A1,A2' -> (A1, A2), the CartanType list of a --types spelling."""
    return tuple(CartanType(t[0], int(t[1:])) for t in spec.split(","))


SMALL = _types("A1,A2,A3,B2,C2")  # 30 data


def test_cominuscule_data_families():
    data = list(cominuscule_data(_types("A1,A2,B2,C2")))
    seen = {(d.system.cartan_type.family, d.system.rank) for d in data}
    assert seen == {("A", 1), ("A", 2), ("B", 2), ("C", 2)}
    assert len(data) == 16
    # D4 contributes data for each of its three cominuscule nodes
    with_d4 = list(cominuscule_data(_types("A1,B2,C2,D4")))
    assert any(d.system.cartan_type.family == "D" for d in with_d4)
    # the data come type by type, in the order the list gives
    order = [str(d.system.cartan_type) for d in cominuscule_data(_types("C2,A1"))]
    assert order == ["C2"] * 4 + ["A1"] * 2


def test_default_types():
    # the ten types verify sweeps unless --types names others
    assert ",".join(map(str, DEFAULT_TYPES)) == "A1,A2,A3,A4,A5,B2,B3,C2,C3,D4"


def test_theorem2_sweep_small():
    out = theorem2_sweep(SMALL)
    assert isinstance(out, SweepOutcome)
    assert out.ok
    assert out.checked == 30
    assert out.failures == []
    assert "30" in out.summary()


def test_singular_agreement_sweep_small():
    out = singular_agreement_sweep(SMALL)
    assert out.ok
    assert out.checked == 30


def test_cominuscule_sweep_walks_once_per_datum():
    # both checks of a datum read one edge-free walk (built by verify_theorem2,
    # reused by ck_singular_points) and one pass over the fixed points: no
    # translation graph is built and no fixed point is projected to W^P (the
    # one projection per parabolic lists the data)
    for memo in (peterson.eventual_translates, peterson._walked, weyl.min_coset_rep):
        memo.cache_clear()
    bij, sing = cominuscule_sweep(SMALL)
    walks = peterson._walked.cache_info()
    assert (walks.misses, walks.hits) == (30, 30)
    graphs = peterson.eventual_translates.cache_info()
    assert (graphs.misses, graphs.hits) == (0, 0)
    projections = weyl.min_coset_rep.cache_info()
    assert projections.misses + projections.hits == 8  # A1 1, A2 2, A3 3, B2 1, C2 1
    assert (bij.label, bij.checked, bij.failures) == ("translate bijection", 30, [])
    assert (sing.label, sing.checked, sing.failures) == (
        "singular locus agreement", 30, []
    )


def test_cominuscule_sweep_records_theorem2_failures(monkeypatch):
    # a tangent set short of one root: every image of a datum with w != e
    # misses a weight, so the map hits no state; each failure is its counts
    real = peterson._tangent_indices
    monkeypatch.setattr(peterson, "_tangent_indices", lambda d: real(d)[1:])
    types = _types("A3,B3")
    bij, sing = cominuscule_sweep(types)
    data = list(cominuscule_data(types))
    failed = [d for d in data if d.w.length]
    assert [(f["type"], f["w"]) for f in bij.failures] == [
        (str(d.system.cartan_type), weyl.format_word(weyl.reduced_word(d.w))) for d in failed
    ]
    for f, d in zip(bij.failures, failed):
        report = peterson.verify_theorem2(d)
        assert f["missing"] == len(peterson.eventual_translates(d.w, d.p).nodes)
        assert (f["missing"], f["extra"], f["collisions"]) == (
            len(report.missing), len(report.extra), len(report.collisions)
        )
        assert f["extra"] > 0
    assert (bij.checked, sing.checked, sing.failures) == (len(data), len(data), [])


def test_cover_walks_match_the_bruhat_oracle_on_every_sweep_datum(weyl_group):
    # the fixed points and the translate-route singular locus, which the
    # package walks down by Bruhat covers, against whole-group filters by
    # the pairwise bruhat_leq
    groups = {}
    data = list(cominuscule_data())
    assert len(data) == 160
    for d in data:
        if d.system not in groups:
            groups[d.system] = weyl_group(d.system)
        group = groups[d.system]
        q = nashcore.nash_parabolic(d)
        assert nashcore.nash_fixed_points(d) == {
            z
            for z in group
            if weyl.is_min_coset_rep(z, q) and weyl.bruhat_leq(z, d.w)
        }
        per_z = Counter(s.z for s in peterson.eventual_translates(d.w, d.p).nodes)
        multi = [z for z, c in per_z.items() if c > 1]
        assert peterson.ck_singular_points(d.w, d.p) == {
            u
            for u in group
            if weyl.is_min_coset_rep(u, d.p)
            and any(weyl.bruhat_leq(u, v) for v in multi)
        }


def test_package_paths_make_no_bruhat_test(a3, a3_w, a3_datum):
    # membership in a walked ideal answers every "v <= w" of the package;
    # clear the walk caches too, so that each path runs in full
    for cached in (weyl.bruhat_leq, weyl._ideal, peterson.eventual_translates):
        cached.cache_clear()
    cominuscule_sweep(SMALL)
    zelevinsky.conjecture_check((2, 5, 3, 1, 4))
    nashcore.nash_fiber(weyl.identity(a3), a3_datum)
    peterson.theorem2_map(a3_w, a3_datum)
    assert weyl.bruhat_leq.cache_info().currsize == 0


def test_coess_formula_sweep_small():
    out = coess_formula_sweep(5)
    assert out.ok
    assert out.checked == 42


def test_fiberproduct_sweep_small():
    out = fiberproduct_sweep(5)
    assert out.ok
    assert out.checked == 52


def test_fiberproduct_sweep_reads_one_grouping_and_one_walk_per_datum(monkeypatch):
    # a datum's sizes come from its grouping of the fixed points and its
    # counts from one edge-free walk; no fiber is interned as a set
    def no_fibers(d):
        raise AssertionError("the sweep built the fibers as sets")

    monkeypatch.setattr(nashcore, "nash_fibers", no_fibers)
    for memo in (peterson._walked, nashcore._fixed_point_groups):
        memo.cache_clear()
    out = fiberproduct_sweep(5)
    assert (out.checked, out.failures) == (52, [])
    assert peterson._walked.cache_info().misses == 52
    assert nashcore._fixed_point_groups.cache_info().misses == 52


def test_fiberproduct_sweep_rejects_states_off_the_fixed_points(monkeypatch):
    # a state over the top of W^P, which lies above e: the sweep reads the
    # counts at fixed points only, so it must look for such a z itself
    real = peterson.translate_counts

    def foreign(w, p):
        counts = Counter(real(w, p))
        counts[weyl.min_coset_rep(weyl.longest_element(w.system), p)] += 1
        return counts

    monkeypatch.setattr(peterson, "translate_counts", foreign)
    with pytest.raises(InvariantViolation) as exc:
        fiberproduct_sweep(3)
    assert str(exc.value) == "translation states over [2, 1], not a fixed point"


# -- failure records of the coessential and fiber-product sweeps --------------

SHORT_W, SHORT_K = (2, 4, 1, 3), 2  # formula boxes (2,1,1) and (2,3,2)
GRASSMANNIAN_UP_TO_4 = [
    (n, k, w) for n in (2, 3, 4) for k in range(1, n) for w in grassmannian_perms(n, k)
]


def _drop_one_box(monkeypatch):
    """The box formula short of its least box at SHORT_W alone."""
    real = grassmann.coess_nash_formula

    def short(w, k):
        boxes = real(w, k)
        return frozenset(sorted(boxes)[1:]) if (w, k) == (SHORT_W, SHORT_K) else boxes

    monkeypatch.setattr(grassmann, "coess_nash_formula", short)


def _one_more_state(monkeypatch, *, at_top):
    """One translation state too many over the identity, and over the top w
    if ``at_top``."""
    real = peterson.translate_counts

    def more(w, p):
        counts = Counter(real(w, p))
        counts[weyl.identity(w.system)] += 1
        if at_top and w.length:
            counts[w] += 1
        return counts

    monkeypatch.setattr(peterson, "translate_counts", more)


def _datum(n, k, w):
    rs = rootsystem.root_system("A", n - 1)
    p = weyl.ParabolicSubset(frozenset(range(1, n)) - {k})
    return nashcore.SchubertDatum(rs, p, grassmann.perm_to_weyl(rs, w))


def _point_record(d, v_el):
    fiber = len(nashcore.nash_fiber(v_el, d))
    return {
        "v": list(grassmann.weyl_to_perm(v_el)),
        "nash_fiber": fiber,
        "product": fiber,
        "translates": fiber + 1,
    }


def test_coess_formula_sweep_records_a_failure(monkeypatch):
    _drop_one_box(monkeypatch)
    out = coess_formula_sweep(4)
    assert out.checked == 1 + 4 + 11  # w != e in S_2, S_3 and S_4
    # the triples are lists, which the CLI's JSON encoder takes
    assert out.failures == [
        {
            "n": 4,
            "k": 2,
            "w": [2, 4, 1, 3],
            "direct": [[2, 1, 1], [2, 3, 2]],
            "formula": [[2, 3, 2]],
        }
    ]


def test_fiberproduct_sweep_records_failures(monkeypatch):
    # a state too many over e and over w: both points fail, e first as the
    # shorter, with the fiber size and product that hold there
    _one_more_state(monkeypatch, at_top=True)
    out = fiberproduct_sweep(4)
    assert out.checked == len(GRASSMANNIAN_UP_TO_4) == 22
    assert len(out.failures) == 22
    for f, (n, k, w) in zip(out.failures, GRASSMANNIAN_UP_TO_4):
        d = _datum(n, k, w)
        points = [weyl.identity(d.system)] + ([d.w] if d.w.length else [])
        assert f == {
            "n": n, "k": k, "w": list(w),
            "points": [_point_record(d, v) for v in points],
        }
        assert f["points"][-1]["nash_fiber"] == 1  # w alone lies over w


def test_verify_json_carries_the_failure_records(monkeypatch, capsys):
    _drop_one_box(monkeypatch)
    _one_more_state(monkeypatch, at_top=False)
    argv = ["verify", "--skip-translates", "--max-n-coess", "4", "--max-n-fibers", "4",
            "--format", "json"]
    assert cli.main(argv) == 1
    coess, fibers = json.loads(capsys.readouterr().out)
    assert (coess["label"], coess["checked"], coess["ok"]) == (
        "coessential closed form", 16, False
    )
    assert coess["failures"] == [
        {"n": 4, "k": 2, "w": [2, 4, 1, 3], "direct": [[2, 1, 1], [2, 3, 2]],
         "formula": [[2, 3, 2]]}
    ]
    assert (fibers["label"], fibers["checked"], fibers["ok"]) == (
        "fiber product counts", 22, False
    )
    want = []
    for n, k, w in GRASSMANNIAN_UP_TO_4:
        d = _datum(n, k, w)
        point = _point_record(d, weyl.identity(d.system))
        want.append({"n": n, "k": k, "w": list(w), "points": [point]})
    assert fibers["failures"] == want


def test_conjecture_sweep_s4_passes():
    out = conjecture_sweep(4)
    assert out.ok
    assert out.checked == 23


def test_conjecture_sweep_s5_finds_the_counterexample():
    out = conjecture_sweep(5)
    assert out.checked == 103
    assert not out.ok
    assert len(out.failures) == 1
    failure = out.failures[0]
    assert failure["w"] == [5, 2, 3, 4, 1]
    (point,) = failure["points"]
    assert point["v"] == [1, 2, 3, 4, 5]
    assert point["product"] == 16
    assert point["peterson_count"] == 8


def test_conjecture_sweep_parallel_matches_serial():
    serial = conjecture_sweep(4)
    parallel = conjecture_sweep(4, jobs=2)
    assert serial.checked == parallel.checked
    assert serial.failures == parallel.failures


def test_e6_cominuscule_sweep():
    # theorem 2 and fiber-versus-translate singular agreement on all 54 E6
    # data, the sweep that verify's type ranges do not reach
    rs = rootsystem.root_system("E", 6)
    w0 = weyl.longest_element(rs)
    nodes = []
    for node in sorted(rs.cominuscule_simples):
        p = weyl.ParabolicSubset(frozenset(range(1, 7)) - {node})
        for w in weyl.interval_min_reps(w0, p):
            d = nashcore.SchubertDatum(system=rs, p=p, w=w)
            report = peterson.verify_theorem2(d)
            assert report.ok, weyl.reduced_word(w)
            assert report.fixed_point_count == report.state_count
            assert nashcore.singular_fixed_points(d) == peterson.ck_singular_points(w, p)
            nodes.append(node)
    assert nodes == [1] * 27 + [6] * 27
