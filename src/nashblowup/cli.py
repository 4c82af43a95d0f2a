"""Command line interface.

Subcommands
-----------
nash        Nash blow-up data of one Schubert datum: the simple roots kept
            by w, the parabolic they generate, fixed points, fibers and the
            singular locus.
peterson    Translation graph of a cominuscule datum (w, P) and the table of
            fixed points with their translates.  Formats: text, json, dot.
grassmann   Type-A report for a Grassmannian permutation: partition,
            coessential boxes, the Nash levi set, the induced flag variety
            and incidence conditions, and the smoothness verdict.
conjecture  Check the fiber-product count against translate counts, for one
            covexillary permutation or a full symmetric group sweep.
verify      Run the exhaustive small-rank sweeps.
types       Show the supported Dynkin diagrams and their cominuscule nodes.

Exit codes: 0 success, 1 a verification failed or an internal invariant was
violated, 2 usage error (bad arguments or malformed input); errors print one
line, no traceback.  Output cut short by the reader (``| head``) is not an error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING, Sequence

# each command imports its own modules when it runs: start-up loads only these
from .rootsystem import (
    DEFAULT_TYPES,
    CartanType,
    InvariantViolation,
    build,
    dynkin_diagram,
    format_root,
)
from .weyl import (
    ParabolicSubset,
    format_word,
    from_word,
    is_min_coset_rep,
    min_coset_rep,
    reduced_word,
)

if TYPE_CHECKING:
    from . import grassmann, nashcore

USAGE_ERROR = 2
CHECK_FAILED = 1
# S_8's covexillary sweep is routine; S_9 waits for a recorded reach probe
MAX_SWEEP_N = 8
# the largest rank of --rank or of a --perm's S_n; on the top cell of Gr(8, 17)
# nash takes 24 s and 276 MB on a 2-vCPU Xeon; peterson ran past 160 s and 1.3 GB
MAX_RANK = 16
# the largest verify ranges, and the largest rank per family in verify
# --types (E has only E6 and E7); at each, one sweep takes under a minute on a
# 2-vCPU Xeon, and one step further multiplies its time by 5 to 10
VERIFY_LIMITS = {"--max-n-coess": 16, "--max-n-fibers": 9}
TYPE_RANK_CAPS = {"A": 8, "B": 7, "C": 7, "D": 7, "E": 7}


class UsageError(Exception):
    pass


def _parse_ints(text: str, what: str, compact: bool = False) -> list[int]:
    """ASCII digit tokens split at commas and spaces, or one digit each."""
    parts = list(text.strip()) if compact else text.replace(",", " ").split()
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise UsageError(f"could not parse {what} from {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:  # past int()'s digit limit, far above every bound
        raise UsageError(f"could not parse {what}: a number is too large") from None


def _int_arg(text: str) -> int:
    """argparse's int; a number past int()'s digit limit is named, not echoed."""
    try:
        return int(text)
    except ValueError:
        too_large = re.fullmatch(r"\s*[+-]?\d+\s*", text)
        msg = "a number is too large" if too_large else f"invalid int value: {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


def _parse_perm(text: str) -> grassmann.Permutation:
    from . import grassmann
    # the compact one-line form, such as 2413, is only unambiguous for n <= 9
    compact = "," not in text and " " not in text
    perm = tuple(_parse_ints(text, "permutation", compact))
    if not perm:
        raise UsageError(f"--perm {text!r}: the permutation is empty")
    try:
        grassmann.check_permutation(perm)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _check_rank(len(perm) - 1)  # S_n is the Weyl group of A_{n-1}
    return perm


def _check_rank(rank: int) -> None:
    if rank > MAX_RANK:
        raise UsageError(f"rank {rank}: at most {MAX_RANK} is supported")


def _cartan_type(family: str, rank: int) -> CartanType:
    _check_rank(rank)
    try:
        return CartanType(family.upper(), rank)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_types(text: str) -> list[CartanType]:
    """A --types list such as ``A5,B3,E7``: distinct types within their caps."""
    if not text:
        raise UsageError("--types: the list is empty")
    types = []
    for token in text.split(","):
        if not re.fullmatch(r"[A-Za-z][0-9]+", token):
            raise UsageError(f"--types: {token!r} is not a family letter and a rank")
        ct = _cartan_type(token[0], *_parse_ints(token[1:], f"--types {token[:8]}..."))
        cap = TYPE_RANK_CAPS[ct.family]
        if ct.rank > cap:
            raise UsageError(f"--types: {ct}: type {ct.family} allows rank <= {cap}")
        if ct in types:
            raise UsageError(f"--types: {ct} is listed twice")
        types.append(ct)
    return types


def _build_datum(args: argparse.Namespace) -> nashcore.SchubertDatum:
    from . import nashcore
    if args.perm is not None and args.word is not None:
        raise UsageError("give one of --word or --perm, not both")
    perm = None
    if args.perm is not None:
        from . import grassmann  # a --word datum never loads the type-A module
        perm = _parse_perm(args.perm)
    family, rank, node = args.type, args.rank, args.node
    if family is None or rank is None:
        # a type-A permutation input determines the type and rank
        if perm is None:
            raise UsageError("need --type and --rank (or a type-A --perm)")
        family, rank = "A", len(perm) - 1
    if node is None and perm is not None:
        node = grassmann.grassmannian_descent(perm) or None
    ct = _cartan_type(family, rank)
    rs = build(ct)
    if node is None:
        # default: the unique maximal choice when only one node is cominuscule
        nodes = sorted(rs.cominuscule_simples)
        if len(nodes) != 1:
            raise UsageError(
                f"{ct} has several cominuscule nodes {nodes}; pass --node"
            )
        node = nodes[0]
    if not 1 <= node <= rs.rank:
        raise UsageError(f"node {node} outside 1..{rs.rank}")
    p = ParabolicSubset(frozenset(range(1, rs.rank + 1)) - {node})

    if perm is not None:
        if ct.family != "A":
            raise UsageError("--perm only makes sense in type A")
        if len(perm) != rs.rank + 1:
            raise UsageError(
                f"permutation of length {len(perm)} does not match A{rs.rank}"
            )
        w = grassmann.perm_to_weyl(rs, perm)
    elif args.word is not None:
        word = _parse_ints(args.word, "word")
        bad = [i for i in word if not 1 <= i <= rs.rank]
        if bad:
            raise UsageError(f"letters {bad} outside 1..{rs.rank}")
        w = from_word(rs, word)
    else:
        raise UsageError("need one of --word or --perm")

    if not is_min_coset_rep(w, p):
        rep = min_coset_rep(w, p)
        raise UsageError(
            f"w = {format_word(reduced_word(w))} is not the minimal "
            f"representative of its coset; use {format_word(reduced_word(rep))}"
        )
    try:
        return nashcore.SchubertDatum(system=rs, p=p, w=w)
    except (ValueError, nashcore.NotCominusculeError) as exc:
        raise UsageError(str(exc)) from None


def _emit(text: str, args: argparse.Namespace) -> None:
    tail = "" if text.endswith("\n") else "\n"  # text + tail would copy text
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write(tail)
        except OSError as exc:
            raise UsageError(f"--output {args.output}: {exc.strerror or exc}") from None
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.write(tail)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone; the flush at shutdown must not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _json_value(x: object, pad: str, memo: dict) -> str:
    """x as ``json.dumps(x, indent=2, sort_keys=True)`` renders it at the
    depth whose newline-plus-indent is ``pad``: one join per container and
    strings through the C escaper (the stdlib drops its C encoder whenever
    ``indent`` is set, and then yields one string per token).  ``memo`` holds
    the text of each list of ints (a root or a word) per depth and values."""
    t = type(x)
    if t is str:
        return _json_str(x)
    if t is int:  # bool is not caught: its type is bool
        return int.__repr__(x)
    if t is bool or x is None:
        return "null" if x is None else "true" if x else "false"
    inner = pad + "  "
    sep = "," + inner
    if t is list and x and {int}.issuperset(map(type, x)):
        key = (pad, *x)  # only ints, so True never meets an equal 1
        if key not in memo:
            memo[key] = f"[{inner}{sep.join(map(int.__repr__, x))}{pad}]"
        return memo[key]
    parts = []
    if t is list:
        for v in x:
            parts += (sep, _json_value(v, inner, memo))
        ends = "[]"
    elif t is dict:
        for k in sorted(x):  # _json_str raises TypeError on a key not a str
            parts += (sep, _json_str(k), ": ", _json_value(x[k], inner, memo))
        ends = "{}"
    else:
        raise TypeError(f"{t.__name__} is not a JSON report value")
    if not parts:
        return ends
    parts[0] = ends[0] + inner
    parts.append(pad + ends[1])
    return "".join(parts)


def _json_dumps(payload: object) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``.

    Reports hold only dict with str keys, list, str, int, bool and None;
    anything else, a float or a tuple included, raises TypeError."""
    return _json_value(payload, "\n", {})


# -- nash ------------------------------------------------------------------


def _nash_text(d: nashcore.SchubertDatum, report: dict, tangent: frozenset) -> str:
    rs = d.system
    lines = [
        f"type: {rs.cartan_type}",
        f"levi: {sorted(d.p.levi)}  cominuscule node: {d.cominuscule_index}",
        f"w: {format_word(reduced_word(d.w))}  length: {d.w.length}",
        f"kept simple roots: {report['delta_w']}",
        f"Nash parabolic levi: {report['Q_levi']}",
        f"fixed points: {report['fixed_point_count']}",
    ]
    for fiber in report["fibers"]:
        mark = "smooth" if fiber["smooth"] else "singular"
        members = ", ".join(format_word(wd) for wd in fiber["fiber_words"])
        lines.append(
            f"  over {format_word(fiber['v_word'])}: {{{members}}}  [{mark}]"
        )
    singular = [
        format_word(f["v_word"]) for f in report["fibers"] if not f["smooth"]
    ]
    lines.append(
        "singular fixed points: "
        + (", ".join(singular) if singular else "(none)")
    )
    lines.append(
        "tangent roots: "
        + ", ".join(format_root(b) for b in tangent)
    )
    return "\n".join(lines)


def cmd_nash(args: argparse.Namespace) -> int:
    from . import nashcore
    d = _build_datum(args)
    report = nashcore.nash_report(d)
    if args.format == "json":
        _emit(_json_dumps(report), args)
    else:
        _emit(_nash_text(d, report, nashcore.tangent_roots(d)), args)
    return 0


# -- peterson --------------------------------------------------------------


def cmd_peterson(args: argparse.Namespace) -> int:
    from . import peterson
    d = _build_datum(args)
    graph = peterson.eventual_translates(d.w, d.p)
    if args.format == "dot":
        _emit(peterson.graph_to_dot(graph), args)
        return 0
    if args.format == "json":
        payload = peterson.graph_to_json(graph)
        payload["fixed_point_table"] = peterson.fixed_point_table(d)
        _emit(_json_dumps(payload), args)
        return 0
    rs = d.system
    lines = [
        f"translation graph for w = {format_word(reduced_word(d.w))}, "
        f"levi {sorted(d.p.levi)}",
        f"states: {len(graph.nodes)}  edges: {len(graph.edges)}",
        "",
        "fixed point table (v, translate, weight set):",
    ]
    for row in peterson.fixed_point_table(d):
        weights = ", ".join(format_root(tuple(b)) for b in row["weights"])
        v_str = format_word(row["v"])
        vt_str = format_word(row["v_tilde"])
        lines.append(f"  {v_str:<16} {vt_str:<16} {{{weights}}}")
    lines.append("")
    lines.append("edges:")
    for src, label, dst in graph.edges:
        lines.append(
            f"  {format_word(reduced_word(src.z)):<16} "
            f"--{format_root(label)}--> "
            f"{format_word(reduced_word(dst.z))}"
        )
    _emit("\n".join(lines), args)
    return 0


# -- grassmann -------------------------------------------------------------


def _grassmann_payload(w: grassmann.Permutation, k: int) -> dict:
    from . import grassmann
    n = len(w)
    lam = grassmann.partition_of(w, k)
    levi_q = grassmann.delta_w_perm(w, k)
    vq = grassmann.max_coset_rep_perm(w, levi_q)
    vp = grassmann.grassmannian_max_rep(w, k)
    config = grassmann.config_description(w, k)
    return {
        "n": n,
        "k": k,
        "w": list(w),
        "partition": list(lam),
        "inner_corners": sorted(grassmann.inner_corners(lam, k, n)),
        "coessential_vp": [
            [b.p, b.q, b.r] for b in sorted(grassmann.coessential_set(vp))
        ],
        "delta_w": sorted(levi_q),
        "v_q": list(vq),
        "coessential_vq": [
            [b.p, b.q, b.r] for b in sorted(grassmann.coessential_set(vq))
        ],
        "smooth": grassmann.nash_blowup_smooth(w, k),
        "config": config.to_json(),
    }


def cmd_grassmann(args: argparse.Namespace) -> int:
    from . import grassmann
    w = _parse_perm(args.perm)
    n = len(w)
    k = grassmann.grassmannian_descent(w)
    if k is None:
        raise UsageError(f"{w} is not Grassmannian; it has more than one descent")
    if k == 0:
        if args.format == "json":
            point = {"n": n, "k": 0, "w": list(w), "point": True, "smooth": True}
            _emit(_json_dumps(point), args)
        else:
            _emit(
                "identity permutation: the variety is a point and its "
                "Nash blow-up is trivially smooth",
                args,
            )
        return 0
    payload = _grassmann_payload(w, k)
    if args.format == "json":
        _emit(_json_dumps(payload), args)
        return 0
    lines = [
        f"w: {''.join(str(x) for x in w) if n <= 9 else list(w)}  "
        f"n: {n}  k: {k}",
        f"partition: {tuple(payload['partition'])}",
        f"inner corners: {payload['inner_corners']}",
        "coessential boxes of the maximal representative: "
        + "; ".join(f"({p},{q}) rank {r}" for p, q, r in payload["coessential_vp"]),
        f"kept levi set: {payload['delta_w']}",
        f"flag steps: {tuple(payload['config']['flag_steps'])}",
        "conditions: " + "; ".join(payload["config"]["conditions_pretty"]),
        f"Nash blow-up smooth: {'yes' if payload['smooth'] else 'no'}",
    ]
    _emit("\n".join(lines), args)
    return 0


# -- conjecture ------------------------------------------------------------


def cmd_conjecture(args: argparse.Namespace) -> int:
    from . import grassmann, sweeps, zelevinsky
    if (args.perm is None) == (args.n is None):
        raise UsageError("give one of --perm or --n")
    if args.perm is not None:
        if args.jobs is not None:
            raise UsageError("--jobs runs the --n sweep; --perm checks one w")
        w = _parse_perm(args.perm)
        if len(w) < 2:
            raise UsageError(f"--perm {args.perm}: the check needs n >= 2")
        if not grassmann.is_covexillary(w):
            raise UsageError(f"{w} is not covexillary")
        report = zelevinsky.conjecture_check(w)
        if args.format == "json":
            _emit(_json_dumps(report.to_json()), args)
        else:
            lines = [
                f"w: {list(report.w)}  covexillary: yes",
                f"seed representative: {list(report.seed)}",
                f"points checked: {len(report.points)}",
            ]
            for pt in report.points:
                mark = "ok" if pt.match else "MISMATCH"
                lines.append(
                    f"  v = {list(pt.v)}: product {pt.product} "
                    f"(chains {pt.z_count} x {pt.zdual_count}), "
                    f"translates {pt.peterson_count}  [{mark}]"
                )
            lines.append("verdict: " + ("pass" if report.ok else "fail"))
            _emit("\n".join(lines), args)
        return 0 if report.ok else CHECK_FAILED

    if not 2 <= args.n <= MAX_SWEEP_N:
        raise UsageError(f"--n {args.n}: the sweep needs 2 <= n <= {MAX_SWEEP_N}")
    jobs, cpus = 1 if args.jobs is None else args.jobs, os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise UsageError(f"--jobs {jobs}: choose 1..{cpus} worker processes")
    outcome = sweeps.conjecture_sweep(args.n, jobs=jobs)
    if args.format == "json":
        _emit(_json_dumps(outcome.to_json()), args)
    else:
        _emit(outcome.summary(), args)
    return 0 if outcome.ok else CHECK_FAILED


# -- verify ----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    from . import sweeps
    types = _parse_types(args.types)
    for flag, limit in VERIFY_LIMITS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if not 0 <= value <= limit:
            raise UsageError(f"{flag} {value}: the sweep allows 0..{limit}")
        # a sweep that runs on a range holding no datum would pass idle
        if value < 2 and not getattr(args, "skip_" + flag.rsplit("-", 1)[1]):
            raise UsageError(f"{flag}: no datum in range; widen it or skip the sweep")
    if args.skip_translates and args.skip_coess and args.skip_fibers:
        raise UsageError("every sweep is skipped; a run must check something")
    outcomes = []
    if not args.skip_translates:
        outcomes.extend(sweeps.cominuscule_sweep(types))
    if not args.skip_coess:
        outcomes.append(sweeps.coess_formula_sweep(args.max_n_coess))
    if not args.skip_fibers:
        outcomes.append(sweeps.fiberproduct_sweep(args.max_n_fibers))
    bad = [o for o in outcomes if not o.ok]
    if args.format == "json":
        _emit(_json_dumps([o.to_json() | {"ok": o.ok} for o in outcomes]), args)
    else:
        _emit("\n".join(o.summary() for o in outcomes), args)
    return CHECK_FAILED if bad else 0


# -- types -----------------------------------------------------------------


def cmd_types(args: argparse.Namespace) -> int:
    if (args.type is None) != (args.rank is None):
        raise UsageError("--type needs --rank" if args.type else "--rank needs --type")
    if args.type:
        specs = [_cartan_type(args.type, args.rank)]
    else:
        specs = [CartanType(t[0], int(t[1])) for t in "A3 B3 C3 D4 E6 E7".split()]
    blocks = []
    for ct in specs:
        rs = build(ct)
        blocks.append(
            dynkin_diagram(ct)
            + f"\ncominuscule nodes: {sorted(rs.cominuscule_simples)}"
            + f"\nhighest root: {format_root(rs.highest_root)}"
        )
    _emit("\n\n".join(blocks), args)
    return 0


# -- parser ----------------------------------------------------------------


def _add_datum_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--type", help="A, B, C, D, E; inferred from --perm")
    sub.add_argument("--rank", type=_int_arg)
    sub.add_argument(
        "--node",
        type=_int_arg,
        help="cominuscule node left out of the levi; by default a --perm's "
        "descent or the type's only cominuscule node",
    )
    sub.add_argument("--word", help="reduced word for w, e.g. 1,3,2")
    sub.add_argument("--perm", help="one-line permutation (type A only)")
    sub.add_argument("--output", help="write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashblowup",
        description="combinatorics of Nash blow-ups of cominuscule Schubert varieties",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_nash = subs.add_parser("nash", help="fixed points and fibers")
    _add_datum_args(p_nash)
    p_nash.add_argument("--format", choices=("text", "json"), default="text")
    p_nash.set_defaults(func=cmd_nash)

    p_pet = subs.add_parser("peterson", help="translation graph")
    _add_datum_args(p_pet)
    p_pet.add_argument(
        "--format", choices=("text", "json", "dot"), default="text"
    )
    p_pet.set_defaults(func=cmd_peterson)

    p_gr = subs.add_parser("grassmann", help="type-A Grassmannian report")
    p_gr.add_argument("--perm", required=True, help="its one descent is k")
    p_gr.add_argument("--format", choices=("text", "json"), default="text")
    p_gr.add_argument("--output")
    p_gr.set_defaults(func=cmd_grassmann)

    p_conj = subs.add_parser("conjecture", help="fiber-product count check")
    p_conj.add_argument("--perm", help="one covexillary permutation")
    p_conj.add_argument(
        "--n", type=_int_arg, help=f"sweep all covexillary in S_n, 2..{MAX_SWEEP_N}"
    )
    p_conj.add_argument("--jobs", type=_int_arg, help="worker processes for --n, default 1")
    p_conj.add_argument("--format", choices=("text", "json"), default="text")
    p_conj.add_argument("--output")
    p_conj.set_defaults(func=cmd_conjecture)

    p_ver = subs.add_parser("verify", help="small-rank verification sweeps")
    p_ver.add_argument(
        "--types",
        default=",".join(map(str, DEFAULT_TYPES)),
        help="Cartan types of the cominuscule sweep, e.g. D5,E6 (default %(default)s)",
    )
    for flag, default, what in (
        ("--max-n-coess", 8, "largest n of the coessential sweep"),
        ("--max-n-fibers", 7, "largest n of the fiber-product sweep"),
    ):
        help_text = f"{what}, at most {VERIFY_LIMITS[flag]}"
        p_ver.add_argument(flag, type=_int_arg, default=default, help=help_text)
    p_ver.add_argument("--skip-translates", action="store_true")
    p_ver.add_argument("--skip-coess", action="store_true")
    p_ver.add_argument("--skip-fibers", action="store_true")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.add_argument("--output")
    p_ver.set_defaults(func=cmd_verify)

    p_ty = subs.add_parser("types", help="supported Dynkin diagrams")
    p_ty.add_argument("--type")
    p_ty.add_argument("--rank", type=_int_arg)
    p_ty.add_argument("--output")
    p_ty.set_defaults(func=cmd_types)

    for each in (parser, *subs.choices.values()):
        each.allow_abbrev = False  # an option has one spelling, never a prefix
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
