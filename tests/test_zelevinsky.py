"""Chain-counting fibers of the paired small resolutions.

The closed-form binomial products are compared against literal enumeration
of subset chains, and the per-point translate counts against a self-contained
type-A recount written on one-line permutations.  The per-point comparison
with translation counts is then frozen for the S5 case (5,2,3,4,1), which
disagrees at the identity.
"""

import functools
import itertools
from collections import Counter

import pytest

from nashblowup import weyl, zelevinsky
from nashblowup.rootsystem import InvariantViolation
from nashblowup.zelevinsky import (
    ConjectureReport,
    CoordFlag,
    conjecture_check,
    covexillary_datum,
    fiberproduct_count,
    schubert_fixed_points,
    z_fiber_count,
    zdual_fiber_count,
)

W5 = (5, 2, 3, 4, 1)
VP8 = (7, 5, 2, 8, 6, 4, 3, 1)


def chains_z(flag, d):
    """Enumerate the chains T_1 <= ... <= T_m with T_i in E_p ^ V_q."""
    count = 0
    stack = [(0, frozenset())]
    while stack:
        i, prev = stack.pop()
        if i == len(d.boxes):
            count += 1
            continue
        b = d.boxes[i]
        allowed = frozenset(range(1, b.p + 1)) & frozenset(flag.steps[i])
        for cand in itertools.combinations(sorted(allowed), b.r):
            if prev <= frozenset(cand):
                stack.append((i + 1, frozenset(cand)))
    return count


def chains_zdual(flag, d):
    """Enumerate chains of supersets of E_p + V_q of size q + p - r."""
    count = 0
    universe = frozenset(range(1, d.n + 1))
    stack = [(0, frozenset())]
    while stack:
        i, prev = stack.pop()
        if i == len(d.boxes):
            count += 1
            continue
        b = d.boxes[i]
        forced = frozenset(range(1, b.p + 1)) | frozenset(flag.steps[i])
        free = sorted(universe - forced)
        need = b.q + b.p - b.r - len(forced)
        if need < 0:
            continue
        for cand in itertools.combinations(free, need):
            full = forced | frozenset(cand)
            if prev <= full:
                stack.append((i + 1, full))
    return count


def contains_pattern(w, pattern):
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


def pattern_mismatches(n):
    """Covexillary (3412-avoiding) w in S_n that contain (5,2,3,4,1)."""
    return [
        w
        for w in itertools.permutations(range(1, n + 1))
        if not contains_pattern(w, (3, 4, 1, 2)) and contains_pattern(w, W5)
    ]


def typea_translate_counts(w):
    """Translation states per point z, recounted on one-line permutations.

    Written from the definitions in the ``peterson`` docstrings alone: a
    root e_i - e_j is the index pair (i, j), z acts on it by z(i), z(j),
    r_(a,b) swaps the values a and b, and the minimal representative of
    z W_P sorts the values inside each descent block of w.  The translation
    step packs every gamma-string of M towards its gamma-minimal element,
    applies r_gamma and projects z back to W^P; the closure starts at the
    minimal representative of w with all its left inversions.
    """
    n = len(w)
    block = [0, 0]  # block[i] for positions 1..n; descents glue i, i+1
    for i in range(2, n + 1):
        block.append(block[-1] + (w[i - 2] < w[i - 1]))

    def min_rep(z):
        return tuple(
            x
            for b in range(block[n] + 1)
            for x in sorted(z[i - 1] for i in range(1, n + 1) if block[i] == b)
        )

    def images(z, keep):
        return frozenset(
            (z[i - 1], z[j - 1])
            for i in range(1, n + 1)
            for j in range(1, i)
            if keep(i, j)
        )

    @functools.lru_cache(maxsize=None)
    def ambient(z):  # z(R^- minus R_L^-)
        return images(z, lambda i, j: block[i] != block[j])

    def left_inversions(z):  # z(R^-) intersected with R^+
        return sorted(images(z, lambda i, j: z[i - 1] < z[j - 1]))

    @functools.lru_cache(maxsize=None)
    def shift(root, k, alpha):
        """root + k alpha as an index pair, or None if it is not a root."""
        vec = [0] * (n + 1)
        vec[root[0]] += 1
        vec[root[1]] -= 1
        vec[alpha[0]] += k
        vec[alpha[1]] -= k
        if sorted(vec) != [-1] + [0] * (n - 1) + [1]:
            return None
        return vec.index(1), vec.index(-1)

    def sigma(z, m, alpha):
        amb = ambient(z)
        # two roots differing by k alpha agree with it in coordinate a up
        # to k, so |k| <= 2 reaches every member of a string
        strings = {
            frozenset(r for k in range(-2, 3) if (r := shift(b, k, alpha)) in amb)
            for b in amb
        }
        out = set()
        for string in strings:
            c = len(string & m)
            if c:
                (mu,) = [r for r in string if shift(r, -1, alpha) not in amb]
                out |= {shift(mu, k, alpha) for k in range(c)}
        assert len(out) == len(m)
        return out

    def tau(state, gamma):
        z, m = state
        swap = {gamma[0]: gamma[1], gamma[1]: gamma[0]}
        new_m = frozenset(
            (swap.get(i, i), swap.get(j, j)) for i, j in sigma(z, m, gamma)
        )
        new_z = min_rep(tuple(swap.get(x, x) for x in z))
        assert new_m <= ambient(new_z)
        return new_z, new_m

    seed = min_rep(w)
    start = (seed, frozenset(left_inversions(seed)))
    seen = {start}
    todo = [start]
    while todo:
        state = todo.pop()
        for gamma in left_inversions(state[0]):
            nxt = tau(state, gamma)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return Counter(z for z, _ in seen)


def test_datum_golden_w5():
    d = covexillary_datum(W5)
    assert d.n == 5
    assert d.levi == frozenset({1, 4})
    assert [(b.p, b.q, b.r) for b in d.boxes] == [(2, 2, 1), (3, 3, 2)]


def test_datum_golden_vp8():
    d = covexillary_datum(VP8)
    assert d.levi == frozenset({1, 2, 4, 5, 6, 7})
    assert [(b.p, b.q, b.r) for b in d.boxes] == [
        (2, 3, 1), (5, 3, 2), (7, 3, 3),
    ]


def test_datum_rejects_non_covexillary():
    with pytest.raises(ValueError):
        covexillary_datum((3, 4, 1, 2))
    with pytest.raises(ValueError):
        covexillary_datum((2, 5, 7, 1, 3, 4, 6, 8))  # contains 3412


def test_identity_datum():
    d = covexillary_datum((1, 2, 3, 4))
    assert d.levi == frozenset()
    assert [(b.p, b.q, b.r) for b in d.boxes] == [
        (1, 1, 1), (2, 2, 2), (3, 3, 3),
    ]
    pts = schubert_fixed_points(d)
    assert len(pts) == 1
    assert fiberproduct_count(pts[0][1], d) == 1


def test_longest_element_datum():
    d = covexillary_datum((4, 3, 2, 1))
    assert d.boxes == ()
    pts = schubert_fixed_points(d)
    assert len(pts) == 1
    # empty condition set: single (empty) chain on each side
    assert z_fiber_count(pts[0][1], d) == 1
    assert zdual_fiber_count(pts[0][1], d) == 1


def test_min_reps_perm_count(min_reps_perm):
    reps = list(min_reps_perm(4, frozenset({2})))
    assert len(reps) == 12
    assert len(set(reps)) == 12
    assert all(r[1] < r[2] for r in reps)  # sorted inside the {2,3} block


@pytest.mark.parametrize("n,count", [(4, 23), (5, 103), (6, 513)])
def test_fixed_points_match_quotient_filter(n, count, min_reps_perm, bruhat_leq_perm):
    """The W^P walk against listing all of W^P in one-line form and keeping
    the v below w, on every covexillary w of S_n."""
    perms = [
        w
        for w in itertools.permutations(range(1, n + 1))
        if not contains_pattern(w, (3, 4, 1, 2))
    ]
    assert len(perms) == count
    for w in perms:
        d = covexillary_datum(w)
        expected = [
            (v, CoordFlag(steps=tuple(tuple(sorted(v[: b.q])) for b in d.boxes)))
            for v in sorted(min_reps_perm(n, d.levi))
            if bruhat_leq_perm(v, w)
        ]
        assert schubert_fixed_points(d) == expected, w


def test_fixed_point_counts():
    assert len(schubert_fixed_points(covexillary_datum(W5))) == 17
    assert len(schubert_fixed_points(covexillary_datum(VP8))) == 23


def test_fixed_point_flags_are_prefixes():
    d = covexillary_datum(W5)
    for v, flag in schubert_fixed_points(d):
        for i, b in enumerate(d.boxes):
            assert flag.steps[i] == tuple(sorted(v[: b.q]))


def test_dp_matches_enumeration_w5():
    d = covexillary_datum(W5)
    for _, flag in schubert_fixed_points(d):
        assert z_fiber_count(flag, d) == chains_z(flag, d)
        assert zdual_fiber_count(flag, d) == chains_zdual(flag, d)


def test_dp_matches_enumeration_vp8():
    d = covexillary_datum(VP8)
    for _, flag in schubert_fixed_points(d):
        assert z_fiber_count(flag, d) == chains_z(flag, d)
        assert zdual_fiber_count(flag, d) == chains_zdual(flag, d)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_counts_match_enumeration_all_sn(n):
    """Every fixed point of every covexillary w of S_n (5,146 on S_6)."""
    from nashblowup import grassmann

    for w in itertools.permutations(range(1, n + 1)):
        if not grassmann.is_covexillary(w):
            continue
        d = covexillary_datum(w)
        for _, flag in schubert_fixed_points(d):
            assert z_fiber_count(flag, d) == chains_z(flag, d), (w, flag)
            assert zdual_fiber_count(flag, d) == chains_zdual(flag, d), (w, flag)


def test_dp_matches_enumeration_pattern_mismatches():
    """Every fixed point of the 21 mismatching w of S_5 and S_6."""
    perms = pattern_mismatches(5) + pattern_mismatches(6)
    assert len(perms) == 21
    for w in perms:
        d = covexillary_datum(w)
        for _, flag in schubert_fixed_points(d):
            assert z_fiber_count(flag, d) == chains_z(flag, d), (w, flag)
            assert zdual_fiber_count(flag, d) == chains_zdual(flag, d), (w, flag)


def test_translate_counts_match_typea_recount():
    """Per-point state counts agree with the one-line recount on every
    covexillary w of S_5 and on the 20 mismatching w of S_6."""
    s5 = [
        w
        for w in itertools.permutations(range(1, 6))
        if not contains_pattern(w, (3, 4, 1, 2))
    ]
    assert len(s5) == 103
    assert typea_translate_counts(W5)[(1, 2, 3, 4, 5)] == 8
    for w in s5 + pattern_mismatches(6):
        report = conjecture_check(w)
        counts = typea_translate_counts(w)
        table = {pt.v: pt.peterson_count for pt in report.points}
        assert set(counts) <= set(table), w
        assert {v: counts.get(v, 0) for v in table} == table, w


def test_flag_validation():
    d = covexillary_datum(W5)
    with pytest.raises(ValueError):
        z_fiber_count(CoordFlag(steps=((1,), (1, 2, 3))), d)  # wrong size
    with pytest.raises(ValueError, match=r"\(1, 2, 2\) is not a 2-subset"):
        z_fiber_count(CoordFlag(steps=((1, 2, 2), (1, 2, 3))), d)  # a repeat
    with pytest.raises(ValueError):
        z_fiber_count(CoordFlag(steps=((1, 2), (1, 3, 4))), d)  # not nested
    # |{4,5} cap {1,2}| = 0 < 1: a flag, but not a point of the variety
    with pytest.raises(ValueError, match=r"rank condition of box \(2,2,1\)"):
        zdual_fiber_count(CoordFlag(steps=((4, 5), (3, 4, 5))), d)


def test_conjecture_check_rejects_states_off_the_fixed_points(monkeypatch):
    # a state over the top of W^P, which lies above the seed e of 132: the
    # points read the counts at fixed points only, so the check looks itself
    real = zelevinsky.translate_counts

    def foreign(w, p):
        counts = Counter(real(w, p))
        counts[weyl.min_coset_rep(weyl.longest_element(w.system), p)] += 1
        return counts

    monkeypatch.setattr(zelevinsky, "translate_counts", foreign)
    with pytest.raises(InvariantViolation) as exc:
        conjecture_check((1, 3, 2))
    assert str(exc.value) == "translation states over [3, 1, 2], not a fixed point"


@pytest.fixture(scope="module")
def report():
    return conjecture_check(W5)


class TestConjectureW5:
    """The S5 comparison: sixteen chain pairs but eight translates at e."""

    def test_not_ok(self, report):
        assert isinstance(report, ConjectureReport)
        assert not report.ok

    def test_seed(self, report):
        assert report.seed == (2, 5, 3, 1, 4)

    def test_single_mismatch_at_identity(self, report):
        bad = report.mismatches
        assert len(bad) == 1
        assert bad[0].v == (1, 2, 3, 4, 5)
        assert bad[0].z_count == 4
        assert bad[0].zdual_count == 4
        assert bad[0].product == 16
        assert bad[0].peterson_count == 8

    def test_point_table(self, report):
        table = {p.v: (p.product, p.peterson_count) for p in report.points}
        assert len(table) == 17
        assert table[(1, 2, 3, 4, 5)] == (16, 8)
        for v in [
            (1, 2, 4, 3, 5), (1, 2, 5, 3, 4), (1, 3, 2, 4, 5), (2, 3, 1, 4, 5),
        ]:
            assert table[v] == (4, 4)
        singles = [v for v, counts in table.items() if counts == (1, 1)]
        assert len(singles) == 12
        assert sum(p for p, _ in table.values()) == 44
        assert sum(t for _, t in table.values()) == 36

    def test_json_shape(self, report):
        js = report.to_json()
        assert js["w"] == list(W5)
        assert js["covexillary"] is True
        assert js["verdict"] == "fail"
        assert len(js["points"]) == 17


def test_conjecture_passes_small_cases():
    for w in [(2, 4, 1, 3), (3, 1, 4, 2), (4, 2, 3, 1), (1, 3, 2)]:
        report = conjecture_check(w)
        assert report.ok, w
        assert report.to_json()["verdict"] == "pass"


def test_conjecture_grassmannian_instance():
    """Gr(3,8) case: both sides agree at all 23 points, 120 in total."""
    report = conjecture_check(VP8)
    assert report.ok
    assert len(report.points) == 23
    idpt = next(p for p in report.points if p.v == tuple(range(1, 9)))
    assert (idpt.z_count, idpt.zdual_count) == (4, 6)
    assert idpt.peterson_count == 24
    assert sum(p.product for p in report.points) == 120
