"""Exhaustive verification drivers, run here at reduced bounds.

The full acceptance bounds live in test_acceptance; these tests pin the
enumeration sizes and the outcome bookkeeping so a silent change in the
iteration space cannot slip through.
"""

from nashblowup import nashcore, peterson, rootsystem, sweeps, weyl
from nashblowup.sweeps import (
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


def test_cominuscule_data_families():
    data = list(cominuscule_data(max_rank_a=2, max_rank_bc=2, include_d4=False))
    seen = {(d.system.cartan_type.family, d.system.rank) for d in data}
    assert seen == {("A", 1), ("A", 2), ("B", 2), ("C", 2)}
    assert len(data) == 16
    # D4 contributes data for each of its three cominuscule nodes
    with_d4 = list(cominuscule_data(max_rank_a=1, max_rank_bc=2, include_d4=True))
    assert any(d.system.cartan_type.family == "D" for d in with_d4)


def test_theorem2_sweep_small():
    out = theorem2_sweep(max_rank_a=3, max_rank_bc=2, include_d4=False)
    assert isinstance(out, SweepOutcome)
    assert out.ok
    assert out.checked == 30
    assert out.failures == []
    assert "30" in out.summary()


def test_singular_agreement_sweep_small():
    out = singular_agreement_sweep(max_rank_a=3, max_rank_bc=2, include_d4=False)
    assert out.ok
    assert out.checked == 30


def test_cominuscule_sweep_builds_one_graph_per_datum():
    peterson.eventual_translates.cache_clear()
    bij, sing = cominuscule_sweep(3, 2, False)
    info = peterson.eventual_translates.cache_info()
    # verify_theorem2 builds the graph, ck_singular_points reuses it
    assert (info.misses, info.hits) == (30, 30)
    assert (bij.label, bij.checked, bij.failures) == ("translate bijection", 30, [])
    assert (sing.label, sing.checked, sing.failures) == (
        "singular locus agreement", 30, []
    )


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
