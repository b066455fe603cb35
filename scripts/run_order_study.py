#!/usr/bin/env python3
"""Strong-order study for the heat equation with multiplication noise.

Runs the four reference schemes as one Monte-Carlo study, on shared noise
and one reference run per chunk of paths, and prints each scheme's per-step
error table and verdict, then a summary line per scheme.  With no arguments
this reproduces the full-size experiment (200 paths, fine mesh 2^-12,
ladder 2^-4..2^-8); pass --paths or --ladder to scale it down:

    python3 scripts/run_order_study.py --paths 40
    python3 scripts/run_order_study.py --ladder 8,9,10,11,12 --fine 16

Exit codes: 0 when no verdict fails (a multi-step run, or a scheme that
equals the reference to rounding, has none), 2 when one fails, and 1 on any
error.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spde_taylor import cli
from spde_taylor.harness import (
    ExperimentConfig,
    report_emit,
    run_study,
    verdict_text,
)

SCHEMES = ("taylor-delta", "exp-euler", "milstein-b0", "full-2nd")

#: The script's flags, converge options of the CLI, with their defaults.
DEFAULTS = {
    "paths": "200", "seed": "2024", "fine": "12", "ladder": "4,5,6,7,8", "r": "0.005",
    "out": None,
}


def main() -> int:
    parser = cli._Parser(description=__doc__)
    for key, default in DEFAULTS.items():
        parser.add_argument(cli._flag(key), default=default, help=cli._OPTIONS[key][2])
    try:
        args = parser.parse_args()
        values = {
            cli._OPTIONS[key][0]: cli._parse_option(key, text, cli._flag(key))
            for key, text in vars(args).items()
            if text is not None
        }
        # Each scheme's reports go to a directory of its own under --out.
        out = values.pop("out_dir", None)
        return study(values, out)
    except cli.REPORTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def study(values: dict, out: str | None) -> int:
    """Run the schemes of SCHEMES as one study and print the tables and the
    summary."""
    results = run_study(ExperimentConfig(model="heat-mult", **values), SCHEMES)
    for result in results:
        print(f"\n== {result.config.scheme} ==")
        cli.print_report(result)
        if out:
            report_emit(result, Path(out) / result.config.scheme)

    print("\n== summary ==")
    for result in results:
        status = verdict_text(result.verdict) or result.reason or "none"
        print(
            f"  {result.config.scheme:<14} slope {cli.slope_text(result)}  "
            f"predicted {result.predicted:.4f}  {status}"
        )
    return 2 if any(result.verdict is False for result in results) else 0


if __name__ == "__main__":
    sys.exit(main())
