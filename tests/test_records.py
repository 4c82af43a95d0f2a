"""The record classes: immutable, equal and hashed by their field tuples."""

import ast
import copy
from pathlib import Path

import pytest

from nashblowup import grassmann, nashcore, peterson, rootsystem, sweeps, weyl, zelevinsky


def _records():
    """One record of each immutable class, built by the library, by name."""
    rs = rootsystem.root_system("A", 3)
    datum = nashcore.SchubertDatum(rs, weyl.parabolic(1, 3), weyl.from_word(rs, [1, 3, 2]))
    w = (5, 2, 3, 4, 1)
    report = zelevinsky.conjecture_check(w)
    cov = zelevinsky.covexillary_datum(w)
    graph = peterson.eventual_translates(datum.w, datum.p)
    return {
        "CartanType": rs.cartan_type,
        "ParabolicSubset": datum.p,
        "SchubertDatum": datum,
        "PetersonState": graph.root,
        "TranslationGraph": graph,
        "Theorem2Report": peterson.verify_theorem2(datum),
        "CoessBox": cov.boxes[0],
        "NashConfig": grassmann.config_description((2, 5, 7, 1, 3, 4, 6, 8), 3),
        "CovexillaryDatum": cov,
        "CoordFlag": zelevinsky.schubert_fixed_points(cov)[0][1],
        "ConjecturePoint": report.points[0],
        "ConjectureReport": report,
    }


RECORDS = _records()
FIELDS = {
    "CartanType": ("family", "rank"),
    "ParabolicSubset": ("levi",),
    "SchubertDatum": ("system", "p", "w"),
    "PetersonState": ("z", "mask"),
    "TranslationGraph": ("root", "nodes", "edges"),
    "Theorem2Report": (
        "ok", "fixed_point_count", "state_count", "missing", "extra", "collisions",
    ),
    "CoessBox": ("p", "q", "r"),
    "NashConfig": (
        "n", "k", "flag_steps", "conditions", "top_degenerate", "bottom_degenerate",
    ),
    "CovexillaryDatum": ("w", "n", "levi", "boxes"),
    "CoordFlag": ("steps",),
    "ConjecturePoint": ("v", "z_count", "zdual_count", "product", "peterson_count"),
    "ConjectureReport": ("w", "seed", "points"),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_is_its_field_tuple(name):
    record = RECORDS[name]
    cls = type(record)
    assert cls.__name__ == name
    values = tuple(getattr(record, f) for f in FIELDS[name])
    for twin in (cls(*values), cls(**dict(zip(FIELDS[name], values))), copy.copy(record)):
        assert twin == record
        assert hash(twin) == hash(record) == hash(values)
    for field, value in zip(FIELDS[name], values):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, FIELDS[name][0])
    assert repr(record).startswith(f"{name}({FIELDS[name][0]}=")


def test_one_record_idiom():
    # the records take their hooks from NamedTuple; only WeylElement (lazy
    # length and word, a hash that ignores PYTHONHASHSEED) writes its own
    hooks = {"__hash__", "__setattr__", "__reduce__"}
    writers = set()
    for path in Path(weyl.__file__).parent.glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = {node.name}
                elif isinstance(node, ast.Assign):
                    names = {t.id for t in node.targets if isinstance(t, ast.Name)}
                else:
                    continue
                if names & hooks:
                    writers.add(cls.name)
    assert writers == {"WeylElement"}


def test_coess_boxes_sort_by_p_q_r():
    boxes = [grassmann.CoessBox(*t) for t in [(5, 3, 2), (2, 3, 1), (2, 1, 1), (5, 3, 1)]]
    assert [tuple(b) for b in sorted(boxes)] == [(2, 1, 1), (2, 3, 1), (5, 3, 1), (5, 3, 2)]
    assert grassmann.CoessBox(2, 1, 1) < grassmann.CoessBox(2, 3, 1)


@pytest.mark.parametrize(
    "args, message",
    [
        (("F", 4), "type F4 has no cominuscule node"),
        (("X", 3), "unknown family 'X'"),
        (("D", 2), "type D needs rank >= 3, got 2"),
        (("E", 8), "type E supports rank 6 or 7 only, got 8"),
    ],
)
def test_cartan_type_rejects(args, message):
    with pytest.raises(ValueError, match=message):
        rootsystem.CartanType(*args)


def test_coess_box_rejects_a_rank_outside_its_box():
    with pytest.raises(ValueError, match=r"rank 3 outside 1..min\(2,5\)"):
        grassmann.CoessBox(2, 5, 3)
    with pytest.raises(ValueError, match=r"rank 0 outside"):
        grassmann.CoessBox(p=2, q=5, r=0)


def test_schubert_datum_rejects():
    a3, b3 = rootsystem.root_system("A", 3), rootsystem.root_system("B", 3)
    e = weyl.identity(a3)
    with pytest.raises(ValueError, match=r"levi indices \[5\] out of range 1..3"):
        nashcore.SchubertDatum(a3, weyl.parabolic(1, 5), e)
    with pytest.raises(ValueError, match=r"levi \[1\] must omit exactly one of 1..3"):
        nashcore.SchubertDatum(a3, weyl.parabolic(1), e)
    with pytest.raises(nashcore.NotCominusculeError, match="coefficient 2"):
        nashcore.SchubertDatum(b3, weyl.parabolic(1, 3), weyl.identity(b3))
    with pytest.raises(ValueError, match="different root system"):
        nashcore.SchubertDatum(a3, weyl.parabolic(1, 3), weyl.identity(b3))
    with pytest.raises(ValueError, match="s1s2s1 is not a minimal coset"):
        nashcore.SchubertDatum(a3, weyl.parabolic(1, 3), weyl.from_word(a3, [1, 2, 1]))


def test_sweep_outcome_stays_mutable():
    out = sweeps.SweepOutcome("label")
    out.checked += 2
    out.failures.append({"w": [2, 1]})
    assert out == sweeps.SweepOutcome("label", 2, [{"w": [2, 1]}])
    assert out != sweeps.SweepOutcome("label", 2)
    assert out.to_json() == {"label": "label", "checked": 2, "failures": [{"w": [2, 1]}]}
    assert sweeps.SweepOutcome("x").failures is not sweeps.SweepOutcome("x").failures
