"""Fixed points, fibers and the smooth locus of the blow-up."""

import pytest

from nashblowup import nashcore, peterson, rootsystem, weyl
from nashblowup.nashcore import (
    NotCominusculeError,
    SchubertDatum,
    delta_w,
    nash_fiber,
    nash_fixed_points,
    nash_parabolic,
    nash_report,
    singular_fixed_points,
)
from nashblowup.sweeps import DEFAULT_TYPES, cominuscule_data
from nashblowup.weyl import from_word, identity, parabolic, reduced_word


def words(elements):
    return sorted(reduced_word(z) for z in elements)


class TestA3Golden:
    """Hand-checked datum: w = s1*s3*s2, levi {1, 3}."""

    def test_delta_is_empty(self, a3_datum):
        assert delta_w(a3_datum) == frozenset()

    def test_nash_parabolic_is_borel(self, a3_datum):
        assert nash_parabolic(a3_datum).levi == frozenset()

    def test_fixed_points(self, a3_datum):
        # Q = B, so the fixed points are the whole lower interval
        assert len(nash_fixed_points(a3_datum)) == 8

    def test_fiber_over_identity(self, a3, a3_datum):
        fib = nash_fiber(identity(a3), a3_datum)
        assert words(fib) == [(), (1,), (3,), (3, 1)]

    def test_fibers_over_smooth_points(self, a3, a3_datum):
        for word in [(2,), (1, 2), (3, 2), (3, 1, 2)]:
            v = from_word(a3, list(word))
            assert len(nash_fiber(v, a3_datum)) == 1

    def test_singular_locus(self, a3, a3_datum):
        assert singular_fixed_points(a3_datum) == frozenset({identity(a3)})
        assert len(nash_fiber(identity(a3), a3_datum)) != 1

    def test_fibers_partition_fixed_points(self, a3, a3_datum, wp_fiber_search):
        total = 0
        for v in weyl.interval_min_reps(a3_datum.w, a3_datum.p):
            fiber = nash_fiber(v, a3_datum)
            assert fiber == wp_fiber_search(v, a3_datum)
            total += len(fiber)
        assert total == len(nash_fixed_points(a3_datum))

    def test_tangent_roots(self, a3_datum):
        assert nashcore.tangent_roots(a3_datum) == {
            (0, -1, 0), (-1, -1, 0), (0, -1, -1),
        }

    def test_report_shape(self, a3_datum):
        report = nash_report(a3_datum)
        assert report["fixed_point_count"] == 8
        assert report["delta_w"] == []
        assert report["Q_levi"] == []
        assert len(report["fibers"]) == 5
        smooth_flags = [f["smooth"] for f in report["fibers"]]
        assert smooth_flags.count(False) == 1


def test_datum_validates_cominuscule():
    rs = rootsystem.root_system("B", 3)
    w = weyl.simple_reflection(rs, 2)
    # omitting node 2 in B3 is not cominuscule (only node 1 is)
    with pytest.raises(NotCominusculeError):
        SchubertDatum(rs, parabolic(1, 3), w)


def test_datum_validates_min_rep(a3):
    w = from_word(a3, [1, 2, 1])  # has a right descent inside the levi
    with pytest.raises(ValueError):
        SchubertDatum(a3, parabolic(1, 3), w)


def test_datum_validates_levi_range(a3):
    with pytest.raises(ValueError):
        SchubertDatum(a3, parabolic(1, 5), identity(a3))


def test_cominuscule_index(a3_datum):
    assert a3_datum.cominuscule_index == 2


def test_identity_datum_is_smooth(a3):
    d = SchubertDatum(a3, parabolic(1, 3), identity(a3))
    assert nash_fixed_points(d) == frozenset({identity(a3)})
    assert singular_fixed_points(d) == frozenset()


def test_delta_keeps_simple_images():
    # Gr(3,8): w sends alpha_5 from the levi to a simple root, keeping node 5
    rs = rootsystem.root_system("A", 7)
    from nashblowup import grassmann

    w = grassmann.perm_to_weyl(rs, (2, 5, 7, 1, 3, 4, 6, 8))
    levi = frozenset(range(1, 8)) - {3}
    d = SchubertDatum(rs, weyl.ParabolicSubset(levi), w)
    assert delta_w(d) == frozenset({5})
    assert nash_parabolic(d).levi == frozenset({5})


def test_full_grassmannian_sweep_b2(wp_fiber_search):
    """Every w in B2/P1: fibers partition the fixed points."""
    rs = rootsystem.root_system("B", 2)
    p = parabolic(2)
    w0 = weyl.longest_element(rs)
    for w in weyl.interval_min_reps(w0, p):
        d = SchubertDatum(rs, p, w)
        base = weyl.interval_min_reps(w, p)
        for v in base:
            assert nash_fiber(v, d) == wp_fiber_search(v, d)
        count = sum(len(nash_fiber(v, d)) for v in base)
        assert count == len(nash_fixed_points(d))


def test_fiber_requires_base_point(a3, a3_datum):
    # s1 is not a minimal coset representative for the levi {1, 3}
    with pytest.raises(ValueError):
        nash_fiber(weyl.simple_reflection(a3, 1), a3_datum)


def test_fiber_requires_a_fixed_point_of_the_variety(a3, a3_parabolic, a3_datum):
    # the top of W^P is in W^P but not below w = s1s3s2
    top = weyl.min_coset_rep(weyl.longest_element(a3), a3_parabolic)
    with pytest.raises(ValueError, match="not a fixed point of the variety"):
        nash_fiber(top, a3_datum)


def test_c3_top_cell_smooth():
    # the full flag-variety point w0^P: the variety is G/P itself
    rs = rootsystem.root_system("C", 3)
    p = parabolic(1, 2)
    w = weyl.min_coset_rep(weyl.longest_element(rs), p)
    d = SchubertDatum(rs, p, w)
    assert singular_fixed_points(d) == frozenset()
    assert delta_w(d) == frozenset({1, 2})


@pytest.mark.parametrize("types", ["default", "E6"])
def test_fibers_keyed_by_the_ambient_set_are_the_coset_projections(
    types, min_coset_fibers
):
    # z(R^- minus R_L^-) names z W_P: grouping by it is grouping by the
    # projection to W^P, and the shortest member of a group is its projection
    which = DEFAULT_TYPES if types == "default" else [rootsystem.CartanType("E", 6)]
    data = list(cominuscule_data(which))
    assert len(data) == (160 if types == "default" else 54)
    for d in data:
        fibers = nashcore.nash_fibers(d)
        assert fibers == min_coset_fibers(d), reduced_word(d.w)
        for v, fiber in fibers.items():
            assert all(v.length < z.length for z in fiber - {v})
        assert singular_fixed_points(d) == {v for v, g in fibers.items() if len(g) > 1}


def test_fibers_and_theorem2_on_tuple_tables(min_coset_fibers):
    # A16 has 272 roots, so its tables, keys and weight sets are tuples and
    # frozensets, not bytes
    rs = rootsystem.root_system("A", 16)
    p = weyl.ParabolicSubset(frozenset(range(1, 17)) - {8})
    w = weyl.min_coset_rep(from_word(rs, [6, 7, 10, 9, 8, 7, 9, 8]), p)
    assert type(w.perm) is tuple and w.length == 6
    d = SchubertDatum(rs, p, w)
    fibers = nashcore.nash_fibers(d)
    assert fibers == min_coset_fibers(d)
    assert any(len(g) > 1 for g in fibers.values())
    report = peterson.verify_theorem2(d)
    assert report.ok and report.fixed_point_count == report.state_count
    assert singular_fixed_points(d) == peterson.ck_singular_points(w, p)
