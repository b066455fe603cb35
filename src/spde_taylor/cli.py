"""Command-line entry points.

Two subcommands:

* ``spde-taylor symbolic --wood <text>`` prints the tree count, active
  nodes, symbolic order and computable terms of a wood.
* ``spde-taylor converge ...`` runs a Monte-Carlo order experiment and
  writes report.csv / report.json.

A config file of ``key = value`` lines (``#`` comments allowed) may supply
any converge option; explicit flags win.  Exit codes: 0 when the verdict is
pass, 2 when it is fail, 1 on any error.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    HarnessError,
    report_emit,
    run_convergence,
    symbolic_report,
)
from .engine import EngineError
from .models import ModelError
from .trees import TreeError


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_ladder(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(" ", "").split(",") if part)
    except ValueError as exc:
        raise ConfigError(f"bad ladder {text!r}: {exc}") from exc


#: Every converge option once: config key -> (ExperimentConfig field, text
#: parser, help).  The flag is the key with ``-`` for ``_``; options left
#: unset fall back to the ExperimentConfig defaults.
_OPTIONS = {
    "model": ("model", str, "heat-mult or heat-add"),
    "scheme": ("scheme", str, "builtin scheme name or wood text"),
    "paths": ("paths", int, "Monte-Carlo path count"),
    "seed": ("seed", int, "master seed"),
    "fine": ("fine_log2", int, "log2 fine substeps over [0, t_end]"),
    "ladder": (
        "ladder_log2",
        _parse_ladder,
        "comma-separated log2 step denominators, e.g. 4,5,6,7,8",
    ),
    "out": ("out_dir", str, "output directory for report files"),
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


def _converge_config(args: argparse.Namespace) -> ExperimentConfig:
    values = load_config_file(args.config) if args.config else {}
    for key in _OPTIONS:
        text = getattr(args, key)
        if text is not None:
            values[key] = _parse_option(key, text, _flag(key))
    return ExperimentConfig(**{_OPTIONS[key][0]: value for key, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "symbolic":
            print(symbolic_report(args.wood))
            return 0
        config = _converge_config(args)
        report = run_convergence(config)
        for row in report.rows:
            print(
                f"h={row.h:.6g}  error={row.error:.6e}  stderr={row.stderr:.2e}  "
                f"paths={row.n_paths}  excluded={row.n_excluded}"
            )
        print(
            f"slope={report.slope:.4f}  predicted={report.predicted:.4f}  "
            f"window=[{report.lower_bound:.4f}, {report.upper_bound:.4f}]  "
            f"verdict={'pass' if report.verdict else 'fail'}"
        )
        if config.out_dir:
            csv_path, json_path = report_emit(report, config.out_dir)
            print(f"wrote {csv_path} and {json_path}")
        return 0 if report.verdict else 2
    except (HarnessError, EngineError, ModelError, TreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
