"""Command line interface: exit codes, formats, determinism."""

import argparse
import ast
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nashblowup
from nashblowup import cli, peterson, sweeps, weyl, zelevinsky
from nashblowup.cli import MAX_RANK, VERIFY_LIMITS, main

A3_ARGS = ["--type", "A", "--rank", "3", "--node", "2", "--word", "1,3,2"]
E6_TOP = "6,5,4,3,2,4,5,6,1,3,4,5,2,4,3,1"
E7_TOP = "7,6,5,4,3,2,4,5,6,7,1,3,4,5,6,2,4,5,3,4,1,3,2,4,5,6,7"


def module_env(hash_seed=None):
    """Environment for `python -m nashblowup` that finds this checkout."""
    env = dict(os.environ)
    src = str(Path(nashblowup.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nash_text(capsys):
    code, out, _ = run(capsys, ["nash"] + A3_ARGS)
    assert code == 0
    assert "fixed points: 8" in out
    assert "over e: {e, s1, s3, s3s1}  [singular]" in out
    assert "singular fixed points: e" in out


def test_nash_json(capsys):
    code, out, _ = run(capsys, ["nash"] + A3_ARGS + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["fixed_point_count"] == 8
    assert payload["delta_w"] == []
    assert len(payload["fibers"]) == 5


def test_nash_by_perm(capsys):
    code, out, _ = run(
        capsys, ["nash", "--perm", "25713468", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_w"] == [5]
    assert payload["fixed_point_count"] == 120


def test_peterson_text(capsys):
    code, out, _ = run(capsys, ["peterson"] + A3_ARGS)
    assert code == 0
    assert "states: 8  edges: 8" in out
    assert "--a1+a2+a3-->" in out


def test_peterson_dot(capsys):
    code, out, _ = run(capsys, ["peterson"] + A3_ARGS + ["--format", "dot"])
    assert code == 0
    assert out.startswith("digraph translates {")
    assert out.count("->") == 8


def test_peterson_json(capsys):
    code, out, _ = run(capsys, ["peterson"] + A3_ARGS + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 8
    assert len(payload["fixed_point_table"]) == 8


def test_grassmann_text(capsys):
    code, out, _ = run(capsys, ["grassmann", "--perm", "25713468"])
    assert code == 0
    assert "partition: (4, 3, 1)" in out
    assert "F_1 <= E_2 <= F_4" in out
    assert "Nash blow-up smooth: no" in out


def test_grassmann_infers_k(capsys):
    # the permutation's one descent is k
    code, out, _ = run(capsys, ["grassmann", "--perm", "25713468"])
    assert code == 0
    assert "k: 3" in out


def test_grassmann_identity(capsys):
    code, out, _ = run(capsys, ["grassmann", "--perm", "1234"])
    assert code == 0
    assert "trivially smooth" in out


@pytest.mark.parametrize("perm", ["1", "123"])
def test_grassmann_identity_json(capsys, perm):
    # the identity's report is JSON too: the variety is a point, and smooth
    code, out, _ = run(capsys, ["grassmann", "--perm", perm, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    n = len(perm)
    assert payload == {
        "n": n, "k": 0, "w": list(range(1, n + 1)), "point": True, "smooth": True
    }
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_grassmann_json(capsys):
    code, out, _ = run(
        capsys,
        ["grassmann", "--perm", "25713468", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == [4, 3, 1]
    assert payload["smooth"] is False


def test_conjecture_single_pass(capsys):
    code, out, _ = run(capsys, ["conjecture", "--perm", "2413"])
    assert code == 0
    assert "verdict: pass" in out


def test_conjecture_single_fail(capsys):
    code, out, _ = run(capsys, ["conjecture", "--perm", "52341"])
    assert code == 1
    assert "verdict: fail" in out
    assert "product 16 (chains 4 x 4), translates 8" in out


def test_conjecture_sweep_pass(capsys):
    code, out, _ = run(capsys, ["conjecture", "--n", "4"])
    assert code == 0
    assert "checked 23" in out


def test_conjecture_sweep_fail(capsys):
    code, out, _ = run(capsys, ["conjecture", "--n", "5"])
    assert code == 1
    assert "1 failure" in out


def test_verify_small(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify", "--types", "A1,A2,B2,C2",
            "--max-n-coess", "4", "--max-n-fibers", "4",
        ],
    )
    assert code == 0
    assert "translate bijection" in out
    assert "ok" in out
    code, out, _ = run(capsys, ["conjecture", "--n", "4"])
    assert (code, out) == (0, "fiber-product conjecture on S_4: checked 23, ok\n")
    # a list without type A: the four cells each of the quadric B2/P1 and of
    # LG(2,4) = C2/P2
    argv = ["verify", "--types", "B2,C2", "--skip-coess", "--skip-fibers"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (
        "translate bijection: checked 8, ok\nsingular locus agreement: checked 8, ok\n"
    )


def test_verify_types_reach_d_and_e(capsys):
    # D5 and E6, which no default of verify holds: 42 and 54 data
    argv = ["verify", "--types", "D5,E6", "--skip-coess", "--skip-fibers"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (
        "translate bijection: checked 96, ok\n"
        "singular locus agreement: checked 96, ok\n"
    )


def test_readme_verify_example(capsys):
    # the README's verify example, run as written, prints the lines shown
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("### `verify`", 1)[1]
    block = section.split("```")[1].replace("\\\n", " ")
    command, *printed = block.strip("\n").splitlines()
    prompt, program, *argv = shlex.split(command)
    assert (prompt, program, argv[0]) == ("$", "nashblowup", "verify")
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.splitlines() == printed


def test_verify_json(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify", "--types", "A1,A2,B2,C2",
            "--skip-coess", "--skip-fibers", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert [entry["checked"] for entry in payload] == [16, 16]
    assert all(entry["ok"] for entry in payload)
    code, out, _ = run(capsys, ["conjecture", "--n", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_types_catalog(capsys):
    code, out, _ = run(capsys, ["types"])
    assert code == 0
    # A3, B3, C3, D4, E6 and E7, the last with the one cominuscule node 7
    assert out.count("cominuscule nodes: ") == 6
    assert "cominuscule nodes: [7]\nhighest root: 2a1+2a2+3a3+4a4+3a5+2a6+a7" in out


def test_types_single(capsys):
    code, out, _ = run(capsys, ["types", "--type", "B", "--rank", "3"])
    assert code == 0
    assert "cominuscule nodes: [1]" in out


def test_usage_errors(capsys, monkeypatch, tmp_path):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    def no_sweep(*args, **kwargs):
        raise AssertionError("a permutation sweep was started")

    # conjecture_sweep imports the pool lazily, so patch where it looks it up
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(sweeps, "covexillary_perms", no_sweep)
    for name in (
        "cominuscule_sweep",
        "theorem2_sweep",
        "singular_agreement_sweep",
        "coess_formula_sweep",
        "fiberproduct_sweep",
        "conjecture_sweep",
    ):
        monkeypatch.setattr(sweeps, name, no_sweep)
    # malformed permutation
    code, _, err = run(capsys, ["nash", "--perm", "1123"])
    assert code == 2
    # unsupported type
    code, _, err = run(
        capsys, ["nash", "--type", "F", "--rank", "4", "--node", "1", "--word", "1"]
    )
    assert code == 2
    assert "error" in err
    # not a minimal representative
    code, _, err = run(
        capsys,
        ["nash", "--type", "A", "--rank", "3", "--node", "2", "--word", "1,2,1"],
    )
    assert code == 2
    assert "s2s1" in err  # suggests the right representative
    # a node outside 1..rank is named, not read as a wrong representative
    code, _, err = run(
        capsys, ["nash", "--type", "A", "--rank", "3", "--node", "9", "--word", "1"]
    )
    assert code == 2
    assert "node 9 outside 1..3" in err
    # rank missing
    code, _, err = run(capsys, ["types", "--type", "B"])
    assert code == 2
    # the conjecture check on S_n with n < 2
    for argv in (
        ["conjecture", "--n", "0"],
        ["conjecture", "--n", "1"],
        ["conjecture", "--perm", "1"],
        # S_n above n = 8, refused before its n! permutations are walked
        ["conjecture", "--n", "9"],
        # --jobs outside 1..cpu_count, refused before any sweep work
        ["conjecture", "--n", "6", "--jobs", "0"],
        ["conjecture", "--n", "6", "--jobs", str((os.cpu_count() or 1) + 1)],
        # one value per input: a second one is refused, not dropped
        ["nash", "--perm", "2413", "--word", "1"],
        ["conjecture", "--perm", "5,2,3,4,1", "--n", "4"],
        ["conjecture", "--perm", "2,1", "--jobs", "2"],
        # verify ranges above their stated limits, refused before any sweep
        *(["verify", flag, str(limit + 1)] for flag, limit in VERIFY_LIMITS.items()),
        # negative ranges, and sweeps left to run on a range holding no datum:
        # each would print "checked 0, ok" and pass
        *(["verify", flag, "-1"] for flag in VERIFY_LIMITS),
        ["verify", "--skip-translates", "--skip-fibers", "--max-n-coess", "-5"],
        ["verify", "--skip-translates", "--skip-fibers", "--max-n-coess", "1"],
        ["verify", "--skip-translates", "--skip-coess", "--max-n-fibers", "1"],
        ["verify", "--max-n-fibers", "0"],
        # every sweep skipped: nothing would be checked
        ["verify", "--skip-translates", "--skip-coess", "--skip-fibers"],
        ["verify", "--skip-translates", "--skip-coess", "--skip-fibers",
         "--format", "json"],
        # a --types list that is empty or malformed, names a type twice, or
        # names one outside the supported families or above its family's cap
        *(["verify", "--types", types] for types in (
            "", "A", "A0", "F4", "A9", "D8", "E8", "A2,A2", "A2;B2", "A2,",
            "A" + "9" * 5000,
        )),
        # a report path in a directory that does not exist
        ["nash", *A3_ARGS, "--output", str(tmp_path / "missing" / "report.txt")],
        # ranks above the bound, refused before the root system is built
        ["types", "--type", "A", "--rank", str(MAX_RANK + 1)],
        ["nash", "--type", "A", "--rank", str(MAX_RANK + 1), "--node", "1",
         "--word", "1"],
        ["conjecture", "--perm", ",".join(map(str, range(1, MAX_RANK + 3)))],
        ["grassmann", "--perm", ",".join(map(str, [2, 1, *range(3, MAX_RANK + 3)]))],
        ["grassmann", "--perm", ",".join(map(str, range(1, MAX_RANK + 3)))],
        # node indices outside 1..rank, refused before any Weyl call
        ["nash", "--type", "A", "--rank", "3", "--node", "9", "--word", "1"],
        ["nash", "--type", "A", "--rank", "3", "--node", "0", "--word", "1"],
        # --rank without --type, as --type without --rank, names the gap
        ["types", "--rank", "5"],
        # a compact permutation takes ASCII digits only
        ["nash", "--perm", "2x13"],
        ["grassmann", "--perm", "\u00b21"],
        # comma and space forms take ASCII digit tokens only: no other
        # scripts' digits and no sign
        ["grassmann", "--perm", "\u0662,\u0661,\u0663"],
        ["conjecture", "--perm", "\u0665,\u0662,\u0663,\u0664,\u0661"],
        ["nash", *A3_ARGS[:-1], "\u0661,\u0663,\u0662"],
        ["nash", *A3_ARGS[:-1], "+2"],
        # a number past int()'s digit limit, in a word and in a comma form
        ["nash", *A3_ARGS[:-1], "1" * 5000],
        ["conjecture", "--perm", "2,1," + "3" * 5000],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    # an empty permutation is named as such, not read as the identity or as
    # a rank or size out of range
    for argv in (
        ["grassmann", "--perm", " "],
        ["grassmann", "--perm", ","],
        ["nash", "--perm", " "],
        ["conjecture", "--perm", " "],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --perm {argv[-1]!r}: the permutation is empty\n"
    # an int option past int()'s digit limit is named, not echoed; text that
    # is no number keeps argparse's own message
    for argv, last in (
        (["nash", "--type", "A", "--rank", "3", "--node", "9" * 5000, "--word", "1"],
         "argument --node: a number is too large"),
        (["conjecture", "--n", "9" * 5000], "argument --n: a number is too large"),
        (["conjecture", "--n", "six"], "argument --n: invalid int value: 'six'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert len(err.encode()) < 500
        assert err.splitlines()[-1].endswith(last)


OPTIONS = {
    "nash": ["--type", "--rank", "--node", "--word", "--perm", "--output",
             "--format"],
    "peterson": ["--type", "--rank", "--node", "--word", "--perm", "--output",
                 "--format"],
    "grassmann": ["--perm", "--format", "--output"],
    "conjecture": ["--perm", "--n", "--jobs", "--format", "--output"],
    "verify": ["--types", *VERIFY_LIMITS, "--skip-translates", "--skip-coess",
               "--skip-fibers", "--format", "--output"],
    "types": ["--type", "--rank", "--output"],
}


def test_option_surface(capsys):
    # each input has one spelling; a new option must be added here on purpose
    (subs,) = (
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    surface = {
        name: [
            flag for action in sub._actions if action.dest != "help"
            for flag in action.option_strings
        ]
        for name, sub in subs.choices.items()
    }
    assert surface == OPTIONS
    assert sum(map(len, surface.values())) == 33
    # the removed spellings are unknown options, not hidden aliases, and no
    # option answers to a prefix of its name
    for argv in (
        ["nash", *A3_ARGS, "--levi", "1,3"],
        ["nash", "--perm", "25713468", "--k", "3"],
        ["peterson", *A3_ARGS, "--levi", "1,3"],
        ["peterson", "--perm", "25713468", "--k", "3"],
        ["grassmann", "--perm", "25713468", "--k", "3"],
        ["grassmann", "--perm", "25713468", "--n", "8"],
        ["verify", "--max-rank-a", "3"],
        ["verify", "--max-rank-bc", "2"],
        ["verify", "--skip-d4"],
        ["verify", "--conjecture-n", "4"],
        ["verify", "--jobs", "2"],
        ["nash", "--type", "A", "--rank", "3", "--no", "2", "--wo", "1,3,2"],
        ["verify", "--type", "A5"],
        ["grassmann", "--pe", "25713468"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        # --pe is not read as --perm, so the required --perm is missing
        wanted = "required: --perm" if "--pe" in argv else "unrecognized arguments"
        assert wanted in err


def test_rank_bound_keeps_the_tuple_table_path(capsys):
    # A16 has 272 roots, past the 256 that fit a bytes table
    assert MAX_RANK >= 16
    argv = ["nash", "--type", "A", "--rank", "16", "--node", "1", "--word", "1"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "fixed points: 2" in out


def test_import_leaves_the_process_pool_unloaded():
    e6_nash = [
        "nash", "--type", "E", "--rank", "6", "--node", "1", "--format", "json",
        "--word", E6_TOP, "--output", os.devnull,
    ]
    cases = [
        # only --jobs > 1 starts workers; every other run must not pay for
        # importing multiprocessing at start-up
        ("", {"multiprocessing", "concurrent.futures.process"}),
        # start-up builds no dataclass and loads no command's own modules:
        # each command imports them when it runs
        ("", {"dataclasses", "inspect", "nashblowup.sweeps", "nashblowup.zelevinsky",
              "nashblowup.peterson", "nashblowup.grassmann"}),
        # a nash query needs rootsystem, weyl and nashcore
        (f"assert cli.main({e6_nash!r}) == 0",
         {"nashblowup.sweeps", "nashblowup.zelevinsky", "nashblowup.grassmann"}),
    ]
    for call, unloaded in cases:
        script = (
            f"import sys\nfrom nashblowup import cli\n{call}\n"
            f"print(sorted(set(sys.modules).intersection({sorted(unloaded)!r})))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=module_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", call


def test_source_builds_no_code_at_run_time():
    # no dataclasses (each one costs an exec at import), and no exec or eval
    for path in Path(nashblowup.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [a.name for a in node.names], path.name
            if isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval"), f"{path.name}:{node.lineno}"


def test_fixed_flags_that_collide_exit_1(capsys, monkeypatch):
    # two fixed points with one flag is an internal fault: one line, no traceback
    flag = zelevinsky.CoordFlag
    monkeypatch.setattr(zelevinsky, "CoordFlag", lambda steps: flag(()))
    code, out, err = run(capsys, ["conjecture", "--perm", "5,2,3,4,1"])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("invariant violated: fixed flags failed to separate")


def test_colliding_flags_are_caught_before_rank_conditions(capsys, monkeypatch):
    # one flag for every point that also breaks the rank condition of the
    # first box (|{4,5} cap {1,2}| = 0 < 1): separation is checked first
    flag = zelevinsky.CoordFlag
    monkeypatch.setattr(zelevinsky, "CoordFlag", lambda steps: flag(((4, 5), (3, 4, 5))))
    code, out, err = run(capsys, ["conjecture", "--perm", "5,2,3,4,1"])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("invariant violated: fixed flags failed to separate")


@pytest.mark.parametrize(
    "module,argv,v",
    [
        (zelevinsky, ["conjecture", "--perm", "1,3,2"], "[3, 1, 2]"),
        (peterson, ["verify", "--skip-translates", "--skip-coess",
                    "--max-n-fibers", "3"], "[2, 1]"),
    ],
    ids=["conjecture", "verify"],
)
def test_states_off_the_fixed_points_exit_1(capsys, monkeypatch, module, argv, v):
    # a translation state over the top of W^P, above every fixed point of
    # the first w checked: an internal fault, one line, no traceback
    real = peterson.translate_counts

    def foreign(w, p):
        counts = real(w, p)
        counts[weyl.min_coset_rep(weyl.longest_element(w.system), p)] += 1
        return counts

    monkeypatch.setattr(module, "translate_counts", foreign)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"invariant violated: translation states over {v}, not a fixed point\n"


def test_sweep_of_a_non_covexillary_w_exits_1(capsys, monkeypatch):
    # an enumerated w has sortable boxes by Fulton's theorem; if one did not,
    # the sweep is at fault: one line, no traceback
    monkeypatch.setattr(sweeps, "covexillary_perms", lambda n: iter([(3, 4, 1, 2)]))
    code, out, err = run(capsys, ["conjecture", "--n", "4"])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("invariant violated:")
    assert "(3, 4, 1, 2)" in err


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_peterson_builds_one_graph(capsys, monkeypatch, fmt):
    calls = []
    build_graph = peterson.eventual_translates

    def counted(*args):
        calls.append(args)
        return build_graph(*args)

    monkeypatch.setattr(peterson, "eventual_translates", counted)
    code, _, _ = run(capsys, ["peterson"] + A3_ARGS + ["--format", fmt])
    assert code == 0
    assert len(calls) == 1


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "nashblowup", "wat"],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert proc.returncode == 2


def test_module_entrypoint_deterministic():
    # str and bytes hashes follow PYTHONHASHSEED, so set and dict iteration
    # order may differ between the two processes; the JSON must not.  The E6
    # top cell's ideal and translation walks key sets and dicts by raw bytes,
    # and so does the S_5 sweep's count of states per point
    e6_args = ["--type", "E", "--rank", "6", "--node", "1", "--word", E6_TOP]
    calls = [
        ([command, *datum], 0)
        for command, datum in itertools.product(("nash", "peterson"), (A3_ARGS, e6_args))
    ]
    calls.append((["conjecture", "--n", "5"], 1))  # (5,2,3,4,1) fails by design
    for argv, code in calls:
        cmd = [sys.executable, "-m", "nashblowup", *argv, "--format", "json"]
        first, second = (
            subprocess.run(cmd, capture_output=True, text=True, env=module_env(seed))
            for seed in (0, 12345)
        )
        assert first.returncode == code, first.stderr
        assert second.returncode == code, second.stderr
        assert first.stdout == second.stdout


@pytest.mark.parametrize("command", ["nash", "peterson"])
def test_e7_top_cell(capsys, command):
    # length 27: the ideal below it in W^P is walked, never all of W(E7)
    argv = [command, "--type", "E", "--rank", "7", "--node", "7", "--word", E7_TOP]
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    if command == "nash":
        assert payload["fixed_point_count"] == 56
        assert len(payload["fibers"]) == 56
        assert all(len(f["fiber_words"]) == 1 for f in payload["fibers"])
    else:
        assert len(payload["nodes"]) == len(payload["fixed_point_table"]) == 56


def test_closed_stdout_is_not_an_error():
    # the read end of the pipe is closed before the child writes anything
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nashblowup", "nash"] + A3_ARGS,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=module_env(),
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    # only a guard refusal means bad input; a ValueError from a library bug
    # must surface, not read as exit 2
    def broken(d):
        raise ValueError("not a root")

    monkeypatch.setattr(nashblowup.nashcore, "nash_report", broken)
    with pytest.raises(ValueError, match="not a root"):
        main(["nash"] + A3_ARGS)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, out, _ = run(
        capsys,
        ["peterson"] + A3_ARGS + ["--format", "dot", "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("digraph")


TOP_CELLS = {
    "A3": ["--type", "A", "--rank", "3", "--node", "2", "--word", "2,3,1,2"],
    "B3": ["--type", "B", "--rank", "3", "--node", "1", "--word", "1,2,3,2,1"],
    "C3": ["--type", "C", "--rank", "3", "--node", "3", "--word", "3,2,3,1,2,3"],
    "D4": ["--type", "D", "--rank", "4", "--node", "1", "--word", "1,2,4,3,2,1"],
    "E6": ["--type", "E", "--rank", "6", "--node", "1",
           "--word", E6_TOP],
}
JSON_COMMANDS = {
    "verify": ["verify"],
    "conjecture-n5": ["conjecture", "--n", "5"],
    "conjecture-perm": ["conjecture", "--perm", "5,2,3,4,1"],
    "grassmann": ["grassmann", "--perm", "25713468"],
    "nash-A3": ["nash", *A3_ARGS],
    "nash-E6": ["nash", *TOP_CELLS["E6"]],
    **{f"peterson-{cell}": ["peterson", *args] for cell, args in TOP_CELLS.items()},
}


@pytest.mark.parametrize("argv", JSON_COMMANDS.values(), ids=JSON_COMMANDS)
def test_json_report_matches_stdlib_encoder(capsys, monkeypatch, argv):
    # every --format json report goes through cli._json_dumps; its bytes are
    # those of the stdlib encoder with indent=2 and sorted keys
    payloads = []
    own = cli._json_dumps

    def recorded(payload):
        payloads.append(payload)
        return own(payload)

    monkeypatch.setattr(cli, "_json_dumps", recorded)
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code in (0, 1)
    assert len(payloads) == 1
    assert out == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n"


def test_json_encoder_edge_cases():
    payload = {
        "z": [[], {}, [[[]]], {"a": {"b": []}}],
        "strings": ['say "hi"', "back\\slash", "tab\tnl\nnul\x00\x1f", "é☃\U0001f600", ""],
        "flags": [True, 1, False, 0, None, -1, -(10**30), 10**30],
        "": {"B": 1, "a": 2, "A": 3, "é": 4, "\x00": 5},
        "nested": {"k": [{"x": [True]}, []]},
        # one int list at two depths, and lists an int-list memo must not merge
        "roots": [[1, 2], {"deeper": [[1, 2], [1, 1]]}, [1, 2]],
        "mixed": [[1, 1], [True, 1], [1, True], [1, 1], [True, False], [[], [[]]]],
    }
    for value in (payload, [], {}, "top", 7, True, None, [[]], [1, 2], [True, 1]):
        assert cli._json_dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "bad",
    [{1, 2}, 1.5, {1: "x"}, {"a": [{2: "y"}]}, ("t",), {"a": "b", 3: "c"}],
    ids=["set", "float", "int-key", "nested-int-key", "tuple", "mixed-keys"],
)
def test_json_encoder_rejects_other_types(bad):
    # the stdlib writes floats, int keys and tuples; no report holds one, so
    # the encoder refuses them instead of guessing their bytes
    with pytest.raises(TypeError):
        cli._json_dumps([bad])
