"""Exhaustive verification drivers, run here at reduced bounds.

The full acceptance bounds live in test_acceptance; these tests pin the
enumeration sizes and the outcome bookkeeping so a silent change in the
iteration space cannot slip through.
"""

from collections import Counter
from itertools import permutations

from nashblowup import (
    grassmann,
    nashcore,
    peterson,
    rootsystem,
    sweeps,
    weyl,
    zelevinsky,
)
from nashblowup.rootsystem import CartanType
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
