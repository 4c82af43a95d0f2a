#!/usr/bin/env python3
"""Census of Nash blow-up smoothness over type A Grassmannians.

For every Schubert variety in every Gr(k, n) with n up to a bound, count
fixed points, decide whether the variety is singular from its fibers, and
record whether the Nash blow-up itself is smooth.

    python scripts/smoothness_census.py --max-n 7
"""

from __future__ import annotations

import argparse
import sys

from nashblowup import cli, grassmann, nashcore, rootsystem, sweeps, weyl


def census(n: int, k: int) -> tuple[int, int, int, int]:
    rs = rootsystem.root_system("A", n - 1)
    p = weyl.ParabolicSubset(frozenset(range(1, n)) - {k})
    total = singular = resolved = still = 0
    for perm in sweeps.grassmannian_perms(n, k):
        total += 1
        d = nashcore.SchubertDatum(rs, p, grassmann.perm_to_weyl(rs, perm))
        sing = bool(nashcore.singular_fixed_points(d))
        smooth_blowup = grassmann.nash_blowup_smooth(perm, k)
        if sing:
            singular += 1
            if smooth_blowup:
                resolved += 1
            else:
                still += 1
        elif not smooth_blowup:
            # a smooth variety is its own Nash blow-up; checked without
            # assert, which python -O strips
            print(f"error: smooth {perm} has a singular blow-up", file=sys.stderr)
            raise SystemExit(1)
    return total, singular, resolved, still


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=7)
    args = ap.parse_args()
    top = cli.VERIFY_LIMITS["--max-n-fibers"]  # the sizes verify's type-A sweep takes
    if not 2 <= args.max_n <= top:
        print(f"error: --max-n {args.max_n}: choose 2..{top}", file=sys.stderr)
        return 2
    print(f"{'Gr(k,n)':>9}  {'cells':>5}  {'singular':>8}  {'resolved':>8}  {'not yet':>7}")
    for n in range(2, args.max_n + 1):
        for k in range(1, n):
            total, singular, resolved, still = census(n, k)
            print(f"Gr({k},{n})".rjust(9), f"{total:5d}  {singular:8d}  {resolved:8d}  {still:7d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
