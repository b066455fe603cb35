"""Command-line entry points.

Two subcommands:

* ``spde-taylor symbolic --wood <text>`` prints the tree count, active
  nodes, symbolic order and computable terms of a wood.
* ``spde-taylor converge ...`` runs a Monte-Carlo order study of one scheme,
  or of a comma-separated list on shared noise, and writes report.csv /
  report.json, a list's under ``<out>/<scheme>/`` after a summary.

A config file of ``key = value`` lines (``#`` comments allowed) may supply
any converge option; explicit flags win.  Exit codes: 0 when no verdict
fails (a multi-step run, or a scheme that equals the reference to rounding,
has none), 2 when one fails, 1 on any error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    ErrorReport,
    ExperimentConfig,
    HarnessError,
    report_emit,
    run_study,
    symbolic_report,
    verdict_text,
)
from .engine import EngineError
from .models import ModelError
from .trees import TreeError


#: The errors :func:`main` reports as ``error: ...`` with exit code 1; a
#: MemoryError is a study too large for the host.
REPORTED_ERRORS = (HarnessError, EngineError, ModelError, TreeError, OSError, MemoryError)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_ladder(text: str) -> tuple[int, ...]:
    """The log2 step denominators in ``text``, split at commas and
    stripped; an empty entry is an error, as in the scheme list, and so is
    an entry that is not plain decimal digits, such as ``4 5`` or ``4_5``,
    which ``int`` reads as 45."""
    ladder = []
    for number, part in enumerate(text.split(","), 1):
        entry = part.strip()
        if not entry:
            raise ConfigError(f"entry {number} of the ladder {text!r} is empty")
        if not (entry.isascii() and entry.isdigit()):
            raise ConfigError(
                f"bad ladder {text!r}: entry {number}, {entry!r}, is not plain decimal digits"
            )
        ladder.append(int(entry))
    return tuple(ladder)


def _parse_schemes(text: str) -> tuple[str, ...]:
    """The scheme names or wood texts in ``text``, split at the commas
    outside ``[...]``, where a wood's own commas all sit, and stripped.  An
    empty entry is an error, and so is a scheme named twice, since its
    reports would overwrite each other."""
    schemes, depth, start = [], 0, 0
    for at, char in enumerate(text):
        depth += (char == "[") - (char == "]")
        if char == "," and depth == 0:
            schemes.append(text[start:at].strip())
            start = at + 1
    schemes.append(text[start:].strip())
    for number, name in enumerate(schemes, 1):
        if not name:
            raise ConfigError(f"entry {number} of the scheme list {text!r} is empty")
        if schemes.count(name) > 1:
            raise ConfigError(f"scheme {name!r} is named twice")
    return tuple(schemes)


#: Every converge option once: config key -> (ExperimentConfig field, text
#: parser, help), with no field for ``out``, which the study does not read.
#: The flag is the key with ``-`` for ``_``; unset options take the defaults.
_OPTIONS = {
    "model": ("model", str, "heat-mult or heat-add"),
    "scheme": ("scheme", _parse_schemes, "scheme name or wood text, or a comma-separated list"),
    "paths": ("paths", int, "Monte-Carlo path count"),
    "seed": ("seed", int, "master seed"),
    "fine": ("fine_log2", int, "log2 fine substeps over [0, t_end]"),
    "ladder": (
        "ladder_log2",
        _parse_ladder,
        "comma-separated log2 step denominators, e.g. 4,5,6,7,8",
    ),
    "out": (None, str, "output directory for report files"),
    "multi_step": (
        "multi_step",
        _parse_bool,
        "iterate the scheme to t_end (global error) instead of one step",
    ),
    "p": ("p_norm", float, "Lp norm exponent (default 2)"),
    "r": ("r", float, "exponent offset for heat-mult"),
    "t_end": ("t_end", float, "time horizon (default 1)"),
    "modes": ("modes", int, "spectral modes (default 64)"),
    "noise_modes": ("noise_modes", int, "noise modes (default 64)"),
}


def _parse_option(key: str, text: str, where: str):
    """``text`` through the parser of option ``key``; a bad value is a
    ConfigError that starts with ``where``."""
    try:
        return _OPTIONS[key][1](text)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config_file(path: str) -> dict:
    """Read ``key = value`` lines into parsed values; unknown keys and
    unparsable values are errors that name the file and line."""
    values: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _OPTIONS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_option(key, text, f"{path}:{lineno}")
    return values


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it exits 1 like any other
    bad input; argparse's own exit code 2 is that of a failed verdict."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spde-taylor",
        description="Tree-indexed Taylor schemes for semilinear SPDEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    symbolic = sub.add_parser("symbolic", help="inspect a wood symbolically")
    symbolic.add_argument("--wood", required=True, help="wood text, e.g. (0);(1*);(2*)")

    converge = sub.add_parser("converge", help="run a strong-order experiment")
    converge.add_argument("--config", help="key = value config file")
    # Flags stay text here and go through the option parsers in main, so a
    # bad value exits 1 like a bad config value instead of with argparse's
    # usage error, whose exit code 2 is that of a failed verdict.
    for key, (_, parse, text) in _OPTIONS.items():
        flag = _flag(key)
        if parse is _parse_bool:
            converge.add_argument(flag, action="store_const", const="true", help=text)
        else:
            converge.add_argument(flag, help=text)
    return parser


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _converge_config(
    args: argparse.Namespace,
) -> tuple[ExperimentConfig, tuple[str, ...], str | None]:
    """The study's config (its scheme the first), its schemes and output directory."""
    values = load_config_file(args.config) if args.config else {}
    for key in _OPTIONS:
        text = getattr(args, key)
        if text is not None:
            values[key] = _parse_option(key, text, _flag(key))
    schemes = values.pop("scheme", (ExperimentConfig.scheme,))
    out_dir = values.pop("out", None)
    fields = {_OPTIONS[key][0]: value for key, value in values.items()}
    return ExperimentConfig(scheme=schemes[0], **fields), schemes, out_dir


def slope_text(report: ErrorReport) -> str:
    """The slope to four digits, or ``none`` for a report without one."""
    return "none" if report.slope is None else f"{report.slope:.4f}"


def failed_side(report: ErrorReport) -> str:
    """``below`` or ``above``: the side of its window a failed slope lies on."""
    return "below" if report.slope < report.lower_bound else "above"


def print_report(report: ErrorReport) -> None:
    """Print the report's per-h rows and its slope verdict, with the side of
    the window for a fail, or the reason it has none."""
    for row in report.rows:
        print(
            f"h={row.h:.6g}  error={row.error:.6e}  stderr={row.stderr:.2e}  "
            f"paths={row.n_paths}  excluded={row.n_excluded}"
        )
    missing = report.reason or "multi-step: no predicted order"
    verdict = verdict_text(report.verdict) or f"none ({missing})"
    if report.verdict is False:
        verdict += f" ({failed_side(report)} the window)"
    print(
        f"slope={slope_text(report)}  predicted={report.predicted:.4f}  "
        f"window=[{report.lower_bound:.4f}, {report.upper_bound:.4f}]  verdict={verdict}"
    )


def print_study(reports: tuple[ErrorReport, ...], out_dir: str | None) -> None:
    """Print each report under its scheme, writing its files to
    ``out_dir/<scheme>`` if set, then a summary line per scheme, whose
    status names the side of the window of a failed slope."""
    for report in reports:
        print(f"\n== {report.config.scheme} ==")
        print_report(report)
        if out_dir:
            report_emit(report, Path(out_dir) / report.config.scheme)
    print("\n== summary ==")
    for report in reports:
        status = verdict_text(report.verdict) or report.reason or "none"
        if report.verdict is False:
            status += f" ({failed_side(report)})"
        print(
            f"  {report.config.scheme:<14} slope {slope_text(report)}  "
            f"predicted {report.predicted:.4f}  {status}"
        )


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "symbolic":
            print(symbolic_report(args.wood))
            return 0
        config, schemes, out_dir = _converge_config(args)
        reports = run_study(config, schemes)
        if len(schemes) == 1:
            print_report(reports[0])
            if out_dir:
                csv_path, json_path = report_emit(reports[0], out_dir)
                print(f"wrote {csv_path} and {json_path}")
        else:
            print_study(reports, out_dir)
        return 2 if any(report.verdict is False for report in reports) else 0
    except REPORTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
