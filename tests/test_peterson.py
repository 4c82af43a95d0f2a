"""Translation graphs: strings, shifts, the graph itself, and the bijection.

The A3 graph below is fully frozen: eight states, eight edges, checked
by hand.  Weight sets are written in simple-root coordinates.
"""

from collections import Counter

import pytest

from nashblowup import grassmann, nashcore, peterson, rootsystem, sweeps, weyl, zelevinsky
from nashblowup.peterson import (
    PetersonState,
    ambient_weights,
    ck_singular_points,
    eventual_translates,
    fixed_point_table,
    graph_to_dot,
    graph_to_json,
    mask_roots,
    theorem2_map,
    verify_theorem2,
    weight_mask,
)
from nashblowup.rootsystem import InvariantViolation
from nashblowup.weyl import (
    ParabolicSubset,
    from_word,
    identity,
    left_inversions,
    parabolic,
    reduced_word,
)

A1, A2, A3_ = (1, 0, 0), (0, 1, 0), (0, 0, 1)
A12, A23, A123 = (1, 1, 0), (0, 1, 1), (1, 1, 1)


def neg(root):
    return tuple(-c for c in root)


# state table for w = s1*s3*s2, levi {1, 3}, keyed by reduced word of z
A3_STATES = {
    ((3, 1, 2), frozenset({A1, A3_, A123})),
    ((1, 2), frozenset({A1, neg(A3_), A12})),
    ((3, 2), frozenset({neg(A1), A3_, A23})),
    ((2,), frozenset({neg(A1), neg(A3_), A2})),
    ((), frozenset({neg(A12), neg(A23), neg(A123)})),
    ((), frozenset({neg(A2), neg(A23), neg(A123)})),
    ((), frozenset({neg(A2), neg(A12), neg(A123)})),
    ((), frozenset({neg(A2), neg(A12), neg(A23)})),
}

A3_EDGES = {
    ((3, 1, 2), A3_, (1, 2)),
    ((3, 1, 2), A1, (3, 2)),
    ((3, 1, 2), A123, ()),
    ((1, 2), A1, (2,)),
    ((1, 2), A12, ()),
    ((3, 2), A3_, (2,)),
    ((3, 2), A23, ()),
    ((2,), A2, ()),
}


@pytest.fixture(scope="module")
def a3_graph(a3_w, a3_parabolic):
    return eventual_translates(a3_w, a3_parabolic)


class TestA3Graph:
    def test_state_set(self, a3_graph):
        got = {(reduced_word(s.z), s.weights) for s in a3_graph.nodes}
        assert got == A3_STATES

    def test_edge_set(self, a3_graph):
        got = {
            (reduced_word(src.z), gamma, reduced_word(dst.z))
            for src, gamma, dst in a3_graph.edges
        }
        assert got == A3_EDGES

    def test_root_state(self, a3_graph, a3_w):
        assert a3_graph.root.z == a3_w
        assert a3_graph.root.weights == left_inversions(a3_w)

    def test_four_states_over_identity(self, a3, a3_graph):
        assert Counter(s.z for s in a3_graph.nodes)[identity(a3)] == 4

    def test_deterministic_rerun(self, a3_w, a3_parabolic, a3_graph):
        again = eventual_translates(a3_w, a3_parabolic)
        assert again is not a3_graph
        assert list(again.nodes) == list(a3_graph.nodes)
        assert list(again.edges) == list(a3_graph.edges)

    def test_weights_always_three(self, a3_graph, a3_w):
        for s in a3_graph.nodes:
            assert len(s.weights) == a3_w.length


def test_ambient_weights_identity(a3, a3_parabolic):
    out = ambient_weights(identity(a3), a3_parabolic)
    assert mask_roots(a3, out) == frozenset(
        {neg(A2), neg(A12), neg(A23), neg(A123)}
    )


def test_ambient_weights_invariant_on_coset(a3, a3_parabolic):
    # multiplying by levi generators on the right fixes the set
    z = from_word(a3, [2])
    z_other = from_word(a3, [2, 1, 3])
    assert ambient_weights(z, a3_parabolic) == ambient_weights(
        z_other, a3_parabolic
    )


# -- the string-key packing, an independent oracle for the packing sigma -------


def _string_key(beta, alpha):
    """Equal keys iff the two roots differ by an integer multiple of alpha."""
    j = next(i for i, c in enumerate(alpha) if c != 0)
    cross = tuple(beta[i] * alpha[j] - beta[j] * alpha[i] for i in range(len(alpha)))
    return (beta[j] % alpha[j], cross)


def _ambient(z, p):
    return mask_roots(z.system, ambient_weights(z, p))


def alpha_strings(z, p, alpha):
    """Partition of the ambient set into strings modulo Z alpha.

    Unlike the true root strings this puts alpha and -alpha in one class;
    no ambient set contains both, so the blocks agree with the walk's.
    Blocks are returned sorted by their minimal element, for determinism.
    """
    if not z.system.is_root(alpha):
        raise ValueError(f"{alpha} is not a root")
    blocks = {}
    for beta in _ambient(z, p):
        blocks.setdefault(_string_key(beta, alpha), set()).add(beta)
    return tuple(frozenset(b) for b in sorted(blocks.values(), key=min))


def alpha_minimal(block, alpha, ambient):
    """The unique mu in the block with mu - alpha outside the ambient set."""
    mins = [
        mu
        for mu in block
        if tuple(m - a for m, a in zip(mu, alpha)) not in ambient
    ]
    if len(mins) != 1:
        raise InvariantViolation(
            f"alpha-minimal element not unique in {sorted(block)} along {alpha}"
        )
    return mins[0]


@pytest.fixture(scope="module")
def seed():
    rs = rootsystem.root_system("A", 4)
    z = grassmann.perm_to_weyl(rs, (2, 5, 3, 1, 4))
    p = ParabolicSubset(frozenset({1, 4}))
    return rs, z, p


class TestStringsOnCovexillarySeed:
    """z = (2,5,3,1,4) in S5, levi {1, 4}, direction a1+a2.

    The only string with more than one member that meets the carried
    weight set is {-a2, a1}; the shift there moves a1 down to -a2.
    """

    B_A1 = (1, 0, 0, 0)
    B_NA2 = (0, -1, 0, 0)
    GAMMA = (1, 1, 0, 0)

    def test_ambient(self, seed):
        _, z, p = seed
        assert _ambient(z, p) == frozenset(
            {
                (0, -1, -1, 0), (0, -1, 0, 0), (0, 0, -1, 0),
                (0, 0, 0, 1), (0, 0, 1, 1), (1, 0, 0, 0),
                (1, 1, 0, 0), (1, 1, 1, 1),
            }
        )

    def test_strings_partition_ambient(self, seed):
        _, z, p = seed
        blocks = alpha_strings(z, p, self.GAMMA)
        union = set()
        for b in blocks:
            assert not (union & set(b))
            union |= set(b)
        assert union == set(_ambient(z, p))

    def test_two_element_strings(self, seed):
        _, z, p = seed
        blocks = [set(b) for b in alpha_strings(z, p, self.GAMMA)]
        assert {self.B_NA2, self.B_A1} in blocks
        assert {(0, 0, 1, 1), (1, 1, 1, 1)} in blocks

    def test_alpha_minimal(self, seed):
        _, z, p = seed
        amb = _ambient(z, p)
        block = frozenset({self.B_NA2, self.B_A1})
        assert alpha_minimal(block, self.GAMMA, amb) == self.B_NA2

    def _shift(self, sigma_on_mask, z, p, m):
        packings = peterson._packings(z.system, self.GAMMA, ambient_weights(z, p))
        return sigma_on_mask(m, packings, self.GAMMA)

    def test_sigma_shift(self, seed, sigma_on_mask):
        rs, z, p = seed
        m = weight_mask(rs, left_inversions(z))
        shifted = self._shift(sigma_on_mask, z, p, m)
        assert mask_roots(rs, shifted) == frozenset(
            {
                (0, -1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1),
                (1, 1, 0, 0), (1, 1, 1, 1),
            }
        )

    def test_sigma_shift_moves_a_lone_weight_down(self, seed, sigma_on_mask):
        # one weight per string is still packed to the string's bottom
        rs, z, p = seed
        shifted = self._shift(sigma_on_mask, z, p, weight_mask(rs, {self.B_A1}))
        assert mask_roots(rs, shifted) == frozenset({self.B_NA2})

    def test_walk_rejects_a_start_outside_the_ambient_set(
        self, seed, monkeypatch, fresh_step_tables
    ):
        # an ambient set at z without a1, one of LInv(z): the start (z, LInv(z))
        # does not fit, so neither walk takes a step
        rs, z, p = seed
        real = peterson.ambient_weights
        without_a1 = ~weight_mask(rs, {self.B_A1})
        monkeypatch.setattr(
            peterson, "ambient_weights",
            lambda v, q: real(v, q) & without_a1 if v == z else real(v, q),
        )
        for walk in (eventual_translates, peterson.translate_counts):
            with pytest.raises(ValueError, match="ambient set"):
                walk(z, p)

    def test_tau_step(self, seed):
        _, z, p = seed
        graph = eventual_translates(z, p)
        (out,) = (b for a, g, b in graph.edges if a == graph.root and g == self.GAMMA)
        assert grassmann.weyl_to_perm(out.z) == (2, 5, 1, 3, 4)
        assert out.weights == frozenset(
            {
                (-1, -1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1),
                (1, 0, 0, 0), (1, 1, 1, 1),
            }
        )


def test_alpha_minimal_requires_unique_bottom():
    # two ends that both look minimal: the string structure is broken
    block = frozenset({(1, 0, 0), (0, 0, 1)})
    ambient = frozenset({(1, 0, 0), (0, 0, 1)})
    with pytest.raises(InvariantViolation):
        alpha_minimal(block, (0, 1, 0), ambient)


def test_sigma_shift_rejects_a_gapped_block(monkeypatch, fresh_step_tables):
    # the two ends of the alpha3-string a2, a2+a3, a2+2a3 of B3, without its
    # middle: both ends look minimal, so the string structure is broken.
    # w = s3s2 has LInv {a3, a2+2a3}, and the walk's first step, along a3,
    # packs the string that holds a2+2a3
    rs = rootsystem.root_system("B", 3)
    w = from_word(rs, [3, 2])
    assert left_inversions(w) == {(0, 0, 1), (0, 1, 2)}
    gapped = weight_mask(rs, {(0, 0, 1), (0, 1, 0), (0, 1, 2)})
    monkeypatch.setattr(peterson, "ambient_weights", lambda z, p: gapped)
    for walk in (eventual_translates, peterson.translate_counts):
        with pytest.raises(InvariantViolation, match="not unique"):
            walk(w, parabolic())


def test_theorem2_map_golden(a3, a3_datum, a3_w):
    top = theorem2_map(a3_w, a3_datum)
    assert top == PetersonState(a3_w, weight_mask(a3, left_inversions(a3_w)))
    z = from_word(a3, [3, 1])
    state = theorem2_map(z, a3_datum)
    assert state.z == identity(a3)
    assert state.weights == frozenset({neg(A12), neg(A23), neg(A123)})


def test_theorem2_map_requires_a_point_below_w(a3, a3_datum):
    # Q is the Borel here, so w0 is in W^Q, but it is not below w = s1s3s2
    with pytest.raises(ValueError, match="not below w"):
        theorem2_map(weyl.longest_element(a3), a3_datum)


def test_verify_theorem2_a3(a3_datum):
    report = verify_theorem2(a3_datum)
    assert report.ok


@pytest.mark.parametrize(
    "family,rank,levi,word",
    [
        ("B", 3, (2, 3), [3, 2, 1]),
        ("C", 3, (1, 2), [2, 3]),
        ("D", 4, (2, 3, 4), [3, 2, 1]),
    ],
)
def test_verify_theorem2_other_types(family, rank, levi, word):
    rs = rootsystem.root_system(family, rank)
    p = parabolic(*levi)
    # project to the coset minimum so the datum is valid by construction
    w = weyl.min_coset_rep(from_word(rs, word), p)
    assert w.length >= 2
    d = nashcore.SchubertDatum(rs, p, w)
    assert verify_theorem2(d).ok


def test_translate_count_equals_fixed_points(a3_datum, a3_graph):
    assert len(a3_graph.nodes) == len(nashcore.nash_fixed_points(a3_datum))


def test_ck_singular_points_golden(a3, a3_w, a3_parabolic, a3_datum):
    cks = ck_singular_points(a3_w, a3_parabolic)
    assert cks == frozenset({identity(a3)})
    assert cks == nashcore.singular_fixed_points(a3_datum)


def test_smooth_quadric_graph():
    # B3/P1 is a five-dimensional quadric; the full space is smooth
    rs = rootsystem.root_system("B", 3)
    p = parabolic(2, 3)
    w = weyl.min_coset_rep(weyl.longest_element(rs), p)
    graph = eventual_translates(w, p)
    assert len(graph.nodes) == 6
    assert ck_singular_points(w, p) == frozenset()


def test_covexillary_graph_counts():
    """The S5 seed (2,5,3,1,4) with levi {1,4}: 36 states, 64 edges."""
    rs = rootsystem.root_system("A", 4)
    z = grassmann.perm_to_weyl(rs, (2, 5, 3, 1, 4))
    p = ParabolicSubset(frozenset({1, 4}))
    graph = eventual_translates(z, p)
    assert len(graph.nodes) == 36
    assert len(graph.edges) == 64
    per_point = {}
    for s in graph.nodes:
        v = grassmann.weyl_to_perm(s.z)
        per_point[v] = per_point.get(v, 0) + 1
    assert per_point[(1, 2, 3, 4, 5)] == 8
    assert per_point[(1, 3, 2, 4, 5)] == 4
    assert per_point[(2, 5, 3, 1, 4)] == 1
    assert len(per_point) == 17
    assert sum(per_point.values()) == 36


def test_graph_to_dot_shape(a3_graph):
    dot = graph_to_dot(a3_graph)
    assert dot.startswith("digraph translates {")
    assert dot.rstrip().endswith("}")
    assert dot.count("->") == 8
    assert 'label="r_2"' in dot
    assert 'label="r_{1,2,3}"' in dot


def test_graph_to_json_shape(a3_graph):
    js = graph_to_json(a3_graph)
    assert sorted(js.keys()) == ["edges", "nodes", "root"]
    assert len(js["nodes"]) == 8
    assert len(js["edges"]) == 8
    ids = {node["id"] for node in js["nodes"]}
    assert js["root"] in ids
    for edge in js["edges"]:
        assert edge["source"] in ids
        assert edge["target"] in ids
        assert len(edge["gamma"]) == 3


def test_fixed_point_table_shape(a3_datum):
    rows = fixed_point_table(a3_datum)
    assert len(rows) == 8
    top = rows[0]
    assert top["v"] == [3, 1, 2]
    assert top["v_tilde"] == [3, 1, 2]
    assert sorted(top["weights"]) == [[0, 0, 1], [1, 0, 0], [1, 1, 1]]
    # every row carries exactly length-many weights
    for row in rows:
        assert len(row["weights"]) == 3


# -- sigma against a packing written out from the strings ----------------------


def _packed(z, p, m, gamma):
    """Each gamma-string of M moved down to its gamma-minimal end."""
    ambient = _ambient(z, p)
    out = set()
    for block in alpha_strings(z, p, gamma):
        count = len(block & m)
        if count:
            mu = alpha_minimal(block, gamma, ambient)
            out |= {tuple(x + k * g for x, g in zip(mu, gamma)) for k in range(count)}
    return frozenset(out)


def _top_cell(family, rank, *nodes):
    # the longest minimal representative, for the levi without the given nodes
    rs = rootsystem.root_system(family, rank)
    p = ParabolicSubset(frozenset(range(1, rank + 1)) - set(nodes))
    return weyl.min_coset_rep(weyl.longest_element(rs), p), p


def _covexillary_seed(w):
    # the graph conjecture_check builds: seeded at the minimal representative
    # of w W_P for the non-maximal levi of the covexillary datum
    d = zelevinsky.covexillary_datum(w)
    rs = rootsystem.root_system("A", d.n - 1)
    seed = grassmann.min_coset_rep_perm(w, d.levi)
    return grassmann.perm_to_weyl(rs, seed), ParabolicSubset(d.levi)


def _full_flag(family, word):
    rs = rootsystem.root_system(family, 3)
    return from_word(rs, word), parabolic()


SIGMA_GRAPHS = {
    "E6/P1 top cell": lambda: _top_cell("E", 6, 1),
    "D5/P1 top cell": lambda: _top_cell("D", 5, 1),
    "(5,2,3,4,1)": lambda: _covexillary_seed((5, 2, 3, 4, 1)),
    "B3 full flag top cell": lambda: _top_cell("B", 3, 1, 2, 3),
    "C3 full flag top cell": lambda: _top_cell("C", 3, 1, 2, 3),
    "B3 full flag s3s1s2s3s2": lambda: _full_flag("B", [3, 1, 2, 3, 2]),
    "C3 full flag s2s3s1s2s3s2s1": lambda: _full_flag("C", [2, 3, 1, 2, 3, 2, 1]),
}


@pytest.mark.parametrize("name", SIGMA_GRAPHS)
def test_sigma_shift_matches_packing_on_every_edge(name):
    w, p = SIGMA_GRAPHS[name]()
    graph = eventual_translates(w, p)
    nontrivial = 0
    three_fill = Counter()  # how many weights of M each block of three holds
    for state, gamma, target in graph.edges:
        z = state.z
        blocks = alpha_strings(z, p, gamma)
        nontrivial += any(len(b) > 1 for b in blocks)
        three_fill.update(len(b & state.weights) for b in blocks if len(b) == 3)
        expected = _packed(z, p, state.weights, gamma)
        refl = weyl.reflection_from_root(z.system, gamma)
        assert target.weights == frozenset(refl(r) for r in expected)
    if "full flag top cell" in name:
        # M is the whole ambient set here, so blocks of three meet it in full
        assert three_fill[3] > 0
    elif "full flag" in name:
        assert three_fill[1] + three_fill[2] > 0  # a block of three packed in part
    elif name == "(5,2,3,4,1)":
        assert nontrivial > 0  # the packing itself runs here
    else:
        assert nontrivial == 0  # cominuscule: every string is a singleton


def test_tau_rejects_weights_leaving_the_ambient_set(
    monkeypatch, fresh_step_tables, a3_w, a3_parabolic
):
    # an empty ambient set at every target z: the translated mask must not fit
    real = peterson.ambient_weights
    monkeypatch.setattr(
        peterson, "ambient_weights", lambda z, p: real(z, p) if z == a3_w else 0
    )
    with pytest.raises(InvariantViolation, match="left the ambient set"):
        eventual_translates(a3_w, a3_parabolic)


# -- the walk over step tables against the per-edge oracle ---------------------


def _walk_cases(name):
    if name.startswith("S"):
        return [_covexillary_seed(w) for w in sweeps.covexillary_perms(int(name[1:]))]
    if name == "E7/P7 cell":
        rs = rootsystem.root_system("E", 7)
        w = from_word(rs, [5, 6, 7, 4, 5, 6, 2, 4, 5, 3, 4, 1, 3, 2, 4, 5, 6, 7])
        return [(w, ParabolicSubset(frozenset(range(1, 7))))]
    ct = rootsystem.CartanType(name[0], int(name[1:]))
    return [(d.w, d.p) for d in sweeps.cominuscule_data([ct])]


WALK_CASES = [
    "S4", "S5", "S6",
    *(str(ct) for ct in sweeps.DEFAULT_TYPES), "D5", "E6",
    "E7/P7 cell",
]


@pytest.mark.parametrize("name", WALK_CASES)
def test_walk_matches_the_per_edge_oracle(name, oracle_translates):
    cases = _walk_cases(name)
    assert cases
    for w, p in cases:
        want = oracle_translates(w, p)
        got = eventual_translates(w, p)
        assert got.root == want.root
        assert got.nodes == want.nodes
        assert got.edges == want.edges
        counts = peterson.translate_counts(w, p)
        assert counts == Counter(s.z for s in want.nodes)
        assert list(counts) == list(dict.fromkeys(s.z for s in want.nodes))
    if name == "E7/P7 cell":
        assert len(got.nodes) == 620


@pytest.mark.parametrize("pattern", [(5, 2, 3, 4, 1), (6, 2, 3, 4, 5, 1)], ids=str)
def test_tuple_table_walk_matches_the_oracle(pattern, oracle_translates):
    # S_17 (A16, 272 roots) keeps tuple tables, so the walk's weight sets are
    # tuples and the strings sigma packs are frozensets, not bytes
    z, p = _covexillary_seed(pattern + tuple(range(len(pattern) + 1, 18)))
    assert type(z.perm) is tuple
    want = oracle_translates(z, p)
    got = eventual_translates(z, p)
    assert (got.root, got.nodes, got.edges) == (want.root, want.nodes, want.edges)
    counts = peterson.translate_counts(z, p)
    assert counts == Counter(s.z for s in want.nodes)
    assert list(counts) == list(dict.fromkeys(s.z for s in want.nodes))
    # sigma packs on some edge: its target is not r_gamma of its source
    assert any(
        b.weights != {weyl.reflection_from_root(z.system, g)(r) for r in a.weights}
        for a, g, b in want.edges
    )


def test_tuple_table_walk_checks_the_ambient_set(monkeypatch, fresh_step_tables):
    # as on A3 above: an empty ambient set at every target z, now on tuples
    z, p = _covexillary_seed((5, 2, 3, 4, 1) + tuple(range(6, 18)))
    real = peterson.ambient_weights
    monkeypatch.setattr(
        peterson, "ambient_weights", lambda v, q: real(v, q) if v == z else 0
    )
    with pytest.raises(InvariantViolation, match="left the ambient set"):
        peterson.translate_counts(z, p)


def test_step_tables_stay_within_their_bound(monkeypatch, fresh_step_tables):
    # S_6 revisits its (z, P) across walks: the sweep takes the w of one
    # parabolic in a row, so each table is built once, and the store holds
    # the tables of one parabolic only
    built = []
    real = peterson._step_table

    def counted(z, p):
        built.append((z.perm, p))
        return real(z, p)

    monkeypatch.setattr(peterson, "_step_table", counted)
    assert sweeps.conjecture_sweep(6).checked == 513
    assert len(built) == len(set(built)) == 864
    assert peterson._step_tables.cache_info().currsize == 1
    last = built[-1][1]
    store = peterson._step_tables(rootsystem.root_system("A", 5), last)
    assert set(store) == {perm for perm, p in built if p == last}


# -- gamma-strings on root codes, and theorem 2 when it fails ------------------

GAMMA_TYPES = [
    *(f"A{r}" for r in range(1, 9)),
    *(f"{f}{r}" for f in "BC" for r in range(2, 8)),
    *(f"D{r}" for r in range(4, 8)),
    "E6", "E7",
]


@pytest.mark.parametrize("name", GAMMA_TYPES)
def test_gamma_strings_from_root_codes_match_the_tuple_walk(
    name, gamma_strings_by_tuples
):
    rs = rootsystem.root_system(name[0], int(name[1:]))
    for gamma in rs.roots:
        assert peterson._gamma_strings(rs, gamma) == gamma_strings_by_tuples(rs, gamma)


def test_gamma_strings_reject_a_vector_that_is_not_a_root(a3):
    with pytest.raises(ValueError, match="not a root"):
        peterson._gamma_strings(a3, (1, 0, 1))


@pytest.mark.parametrize(
    "family,rank,levi,word",
    [("A", 3, (1, 3), [1, 3, 2]), ("B", 3, (2, 3), [3, 2, 1])],
)
def test_verify_theorem2_reports_a_short_tangent_set(
    monkeypatch, family, rank, levi, word
):
    # E short of one root: the report is the comparison of the map, taken
    # per fixed point through min_coset_rep, with the translation graph
    rs = rootsystem.root_system(family, rank)
    p = parabolic(*levi)
    d = nashcore.SchubertDatum(rs, p, weyl.min_coset_rep(from_word(rs, word), p))
    short = peterson._tangent_indices(d)[1:]
    monkeypatch.setattr(peterson, "_tangent_indices", lambda _: short)
    report = verify_theorem2(d)
    fixed = nashcore.nash_fixed_points(d)
    images = Counter(
        PetersonState(
            weyl.min_coset_rep(z, p), peterson._index_mask(z.perm[i] for i in short)
        )
        for z in fixed
    )
    states = set(eventual_translates(d.w, p).nodes)
    key = peterson._state_sort_key
    assert not report.ok
    assert (report.fixed_point_count, report.state_count) == (len(fixed), len(states))
    assert report.missing == tuple(sorted(states - set(images), key=key))
    assert report.extra == tuple(sorted(set(images) - states, key=key))
    assert report.missing and report.extra
    collided = sorted((s for s, c in images.items() if c > 1), key=key)
    assert report.collisions == tuple((s, images[s]) for s in collided)


def test_verify_theorem2_reports_a_repeated_fixed_point(monkeypatch, a3):
    # one fiber's second fixed point read as its first: as many images as
    # states, yet one state is hit twice and one never, as the comparison of
    # the map, taken per fixed point through min_coset_rep, with the graph finds
    p = parabolic(1, 3)
    d = nashcore.SchubertDatum(a3, p, weyl.min_coset_rep(from_word(a3, [1, 3, 2]), p))
    real = nashcore._fixed_point_groups(d)
    groups = {k: list(g) for k, g in real.items()}
    g = next(g for g in groups.values() if len(g) > 1)
    g[1] = g[0]
    monkeypatch.setattr(nashcore, "_fixed_point_groups", lambda _: groups)
    report = verify_theorem2(d)
    fixed = [weyl._element(a3, t) for g in groups.values() for t in g]
    tangent = peterson._tangent_indices(d)
    images = Counter(
        PetersonState(
            weyl.min_coset_rep(z, p), peterson._index_mask(z.perm[i] for i in tangent)
        )
        for z in fixed
    )
    states = set(eventual_translates(d.w, p).nodes)
    key = peterson._state_sort_key
    assert not report.ok
    assert report.fixed_point_count == report.state_count == len(states)
    assert report.missing == tuple(sorted(states - set(images), key=key))
    assert len(report.missing) == 1 and report.extra == ()
    assert report.collisions == tuple((s, c) for s, c in images.items() if c > 1)
    assert [c for _, c in report.collisions] == [2]
