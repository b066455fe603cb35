#!/usr/bin/env python3
"""Strong-order study for the heat equation with multiplication noise.

Runs the four reference schemes through the Monte-Carlo harness and prints
one summary line per scheme, plus the per-step error table.  With no
arguments this reproduces the full-size experiment (200 paths, fine mesh
2^-12, ladder 2^-4..2^-8); pass --paths or --ladder to scale it down.

    python3 scripts/run_order_study.py --paths 40
    python3 scripts/run_order_study.py --ladder 8,9,10,11,12 --fine 16
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spde_taylor.cli import REPORTED_ERRORS, _parse_ladder
from spde_taylor.harness import ExperimentConfig, report_emit, run_convergence

SCHEMES = ["taylor-delta", "exp-euler", "milstein-b0", "full-2nd"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paths", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--fine", type=int, default=12)
    parser.add_argument("--ladder", default="4,5,6,7,8")
    parser.add_argument("--r", type=float, default=0.005)
    parser.add_argument("--out", default=None, help="directory for report files")
    args = parser.parse_args()
    try:
        return study(args)
    except REPORTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def study(args: argparse.Namespace) -> int:
    """Run every scheme of SCHEMES and print the tables and the summary."""
    ladder = _parse_ladder(args.ladder)
    summaries = []
    for scheme in SCHEMES:
        config = ExperimentConfig(
            model="heat-mult",
            scheme=scheme,
            paths=args.paths,
            seed=args.seed,
            fine_log2=args.fine,
            ladder_log2=ladder,
            r=args.r,
        )
        result = run_convergence(config)
        print(f"\n== {scheme} (predicted order {result.predicted:.4f}) ==")
        for row in result.rows:
            print(
                f"  h={row.h:<12.6g} error={row.error:.6e} "
                f"stderr={row.stderr:.2e} paths={row.n_paths}"
            )
        status = "pass" if result.verdict else "fail"
        print(
            f"  slope {result.slope:.4f} vs window "
            f"[{result.lower_bound:.4f}, {result.upper_bound:.4f}] -> {status}"
        )
        if args.out:
            report_emit(result, Path(args.out) / scheme)
        summaries.append((scheme, result))

    print("\n== summary ==")
    for scheme, result in summaries:
        status = "pass" if result.verdict else "fail"
        print(
            f"  {scheme:<14} slope {result.slope:.4f}  "
            f"predicted {result.predicted:.4f}  {status}"
        )
    return 0 if all(result.verdict for _, result in summaries) else 2


if __name__ == "__main__":
    sys.exit(main())
