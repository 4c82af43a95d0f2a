"""The public names of the library, pinned like the CLI's options."""

import importlib
import types
from pathlib import Path

import nashblowup

PUBLIC = {
    "rootsystem": [
        "CartanType", "InvariantViolation", "Root", "RootSystem", "build",
        "dynkin_diagram", "format_root", "root_system",
    ],
    "weyl": [
        "ParabolicSubset", "WeylElement", "bruhat_leq", "format_word",
        "from_word", "identity", "interval_min_reps", "inverse",
        "is_min_coset_rep", "left_inversions", "longest_element",
        "lower_interval", "max_coset_rep", "min_coset_rep", "multiply",
        "parabolic", "reduced_word", "reflection_from_root", "right_descents",
        "simple_reflection",
    ],
    "nashcore": [
        "NotCominusculeError", "SchubertDatum", "delta_w", "nash_fiber",
        "nash_fibers", "nash_fixed_points", "nash_parabolic", "nash_report",
        "singular_fixed_points", "tangent_roots",
    ],
    "peterson": [
        "PetersonState", "Theorem2Report", "TranslationGraph",
        "ambient_weights", "ck_singular_points", "eventual_translates",
        "fixed_point_table", "graph_to_dot", "graph_to_json", "mask_roots",
        "reflection_label", "theorem2_map", "translate_counts",
        "verify_theorem2", "weight_mask",
    ],
    "grassmann": [
        "CoessBox", "NashConfig", "Permutation", "check_permutation",
        "coess_nash_formula", "coessential_set", "config_description",
        "corner_boxes", "defined_by_inclusions", "delta_w_perm", "descent_set",
        "grassmannian_descent", "grassmannian_max_rep", "inner_corners",
        "is_covexillary", "is_grassmannian", "max_coset_rep_perm",
        "min_coset_rep_perm", "nash_blowup_smooth", "partition_of",
        "perm_to_weyl", "rank_number", "weyl_to_perm",
    ],
    "zelevinsky": [
        "ConjecturePoint", "ConjectureReport", "CoordFlag", "CovexillaryDatum",
        "conjecture_check", "covexillary_datum", "fiberproduct_count",
        "schubert_fixed_points", "z_fiber_count", "zdual_fiber_count",
    ],
    "sweeps": [
        "DEFAULT_TYPES", "SweepOutcome", "coess_formula_sweep",
        "cominuscule_data", "cominuscule_sweep", "conjecture_sweep",
        "covexillary_perms", "fiberproduct_sweep", "grassmannian_perms",
        "singular_agreement_sweep", "theorem2_sweep",
    ],
}


def test_public_surface():
    # a name added to a module's __all__ must be added here on purpose
    for name, public in PUBLIC.items():
        module = importlib.import_module(f"nashblowup.{name}")
        assert sorted(module.__all__) == public, name
        for attr in public:
            assert hasattr(module, attr), f"{name}.{attr}"
    # the package itself re-exports nothing: its public names are submodules
    assert isinstance(nashblowup.__version__, str)
    for attr, value in vars(nashblowup).items():
        if not attr.startswith("_"):
            assert isinstance(value, types.ModuleType), attr
            assert value.__name__ == f"nashblowup.{attr}", attr


SRC_LINES = 3008  # raise on purpose, and say why in CHANGES.md


def test_src_line_budget():
    # the package's size is tracked next to its speed: a change that needs
    # more lines raises the pin on purpose
    src = Path(nashblowup.__file__).resolve().parent
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    assert lines <= SRC_LINES
