"""Monte-Carlo strong-order studies and machine-readable reports.

A study couples each of its schemes with the fine-mesh reference on every
path: for each h of a dyadic ladder it steps the scheme with step h from a
fixed start state up to a horizon and compares the end state with the
reference at that horizon, on the same increments (see
:func:`_ladder_errors`).  Paths run in ranges: :func:`_range_errors` gives
a range's columns from the path indices alone, through per-path Philox
streams, so no split of the paths changes a byte.  The default horizon is
h itself, which measures one-step errors; the Lp error per h is regressed
against h in log-log coordinates and the slope compared with the order
the scheme's wood predicts.  Behind a flag the horizon is t_end for every h, which measures
global errors; the wood predicts no order for those, so a multi-step run
reports no verdict and no margin.  A scheme whose rows lie at or below a
rounding floor equals the reference to rounding: its report gives that
reason instead of a slope and a verdict.  So does a multi-step run with
under two rows three standard errors above zero; in a one-step run that
shortfall is an error.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass, replace
from hashlib import sha256
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    _REFERENCE_SCHEME,
    BUILTIN_WOODS,
    BoundPlan,
    CompiledScheme,
    NoisePath,
    _first_failures,
    _run,
    compile_scheme,
    path_generator,
)
from .models import ModelSpec, build_model
from .terms import psi
from .trees import (
    NoActiveTreeError,
    SWood,
    active_nodes,
    order_wood,
    parse,
    serialize,
)


class HarnessError(Exception):
    pass


class ConfigError(HarnessError):
    pass


class ReportError(HarnessError):
    pass


#: Verdict window around the predicted order, in slope units.
SLOPE_BELOW = 0.10
SLOPE_ABOVE = 0.20

#: A row at or below this many epsilons times the Lp size of the reference
#: states at its horizon is rounding.  Rounding rows measured up to 27 on
#: heat-add, with 8192 substeps per window; taylor-delta's rows there, 1e15.
ROUNDING_FLOOR_EPS = 1024.0
ROUNDING_REASON = "equals the reference to rounding: under two ladder rows above the floor"
#: The reason of a multi-step report whose rows leave under two for the fit.
SHORTFALL_REASON = "under two finite ladder rows lie three standard errors above zero"


@dataclass(frozen=True)
class ExperimentConfig:
    """One order study: model, scheme, ladder, fine mesh, paths and seed."""

    model: str = "heat-mult"
    scheme: str = "exp-euler"
    t_end: float = 1.0
    fine_log2: int = 12
    ladder_log2: tuple[int, ...] = (4, 5, 6, 7, 8)
    paths: int = 200
    seed: int = 12345
    r: float = 0.005
    p_norm: float = 2.0
    multi_step: bool = False
    modes: int = 64
    noise_modes: int = 64

    def validate(self) -> None:
        """Raise :class:`ConfigError` for a config no study can run."""
        if not 0.0 < self.t_end < math.inf:
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end}")
        if self.paths < 2:
            raise ConfigError("need at least 2 paths")
        if self.fine_log2 < 0:
            raise ConfigError("fine_log2 must be >= 0")
        if not self.ladder_log2:
            raise ConfigError("ladder must not be empty")
        if len(set(self.ladder_log2)) != len(self.ladder_log2):
            raise ConfigError(f"ladder {self.ladder_log2} repeats an entry")
        for k in self.ladder_log2:
            if k < 0 or k > self.fine_log2:
                raise ConfigError(
                    f"ladder entry {k} must lie in 0..fine_log2={self.fine_log2} "
                    "so coarse steps are multiples of the fine step"
                )
        if not 1.0 <= self.p_norm < math.inf:
            raise ConfigError(f"p_norm must be finite and >= 1, got {self.p_norm}")
        if self.modes < 1 or self.noise_modes < 1:
            raise ConfigError("mode counts must be >= 1")
        if not 0 <= self.seed < 2**128:  # a Philox key is 128 bits
            raise ConfigError(f"seed must lie in 0..2**128 - 1, got {self.seed}")

    @property
    def h_fine(self) -> float:
        """t_end / 2**fine_log2."""
        return self.t_end / 2**self.fine_log2

    @property
    def ladder(self) -> tuple[float, ...]:
        """t_end / 2**k for each k of ``ladder_log2``, from the longest down."""
        return tuple(self.t_end / 2**k for k in sorted(self.ladder_log2))


@dataclass(frozen=True)
class ErrorRow:
    """The Lp error of one h, its standard error and the path counts."""

    h: float
    error: float
    stderr: float
    n_paths: int
    n_excluded: int


@dataclass(frozen=True)
class ErrorReport:
    """One scheme's rows, regression slope and verdict."""

    config: ExperimentConfig
    rows: tuple[ErrorRow, ...]
    #: None when under two rows are fit for the regression (see ``reason``).
    slope: float | None
    predicted: float
    #: None for a multi-step run, which has no predicted order, or a reason.
    verdict: bool | None
    margin: float | None
    gamma: float
    delta: float
    regression_rows: int
    #: ``ROUNDING_REASON`` or ``SHORTFALL_REASON`` when the slope is None.
    reason: str | None = None

    @property
    def lower_bound(self) -> float:
        return self.predicted - SLOPE_BELOW

    @property
    def upper_bound(self) -> float:
        return self.predicted + SLOPE_ABOVE


def resolve_scheme(name_or_wood: str) -> tuple[CompiledScheme, SWood]:
    """A builtin scheme name, or wood text to compile on the fly."""
    wood = BUILTIN_WOODS.get(name_or_wood) or parse(name_or_wood)
    return compile_scheme(psi(wood), source_wood=wood), wood


#: Bytes of increments drawn per chunk of paths: 8 paths of the one-step
#: study at h_fine = 2^-12 (256 substeps of 64 modes), one path of a
#: multi-step run over 2^12 substeps.  tracemalloc puts the peak of the
#: arrays a study of criterion 3's four schemes (N = M = 64) allocates at
#: 10.2 MiB for one such chunk and 12.2 MiB for two or more, as a chunk's
#: arrays live until the next chunk's replace them (:func:`_range_errors`):
#: its increments (1 MiB), prepared grid noise (P = 255, 4 MiB), reference
#: states and records, rows and step temporaries.
_CHUNK_BYTES = 1 << 20


def _ladder_errors(
    config: ExperimentConfig, schemes: tuple[CompiledScheme, ...], model: ModelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """``errors[scheme, h, path]``, the Euclidean norms of the end-state
    errors against the reference, NaN exactly where the scheme's state is
    not finite, and ``reference[h, path]``, the reference states' norms,
    for h down ``config.ladder``; both norms use ``np.hypot``, so finite
    differences never overflow.  A non-finite reference raises
    :class:`NonfiniteValueError`.

    Binds the runs once per study, as (plan, steps, horizon): first the
    reference, one substep per step over the window, whose horizon is the
    tuple of the ladder's horizons it records; then each scheme's plan per
    h, one step in one-step mode or steps to t_end in multi-step mode, with
    its horizon in substeps.  Cuts the paths into ranges of ``_CHUNK_BYTES``
    of increments and concatenates the columns :func:`_range_errors` yields
    for them in path order.
    """
    h_fine = config.h_fine
    steps = [round(config.t_end / h) if config.multi_step else 1 for h in config.ladder]
    horizons = [n * round(h / h_fine) for n, h in zip(steps, config.ladder)]  # in substeps
    window = max(horizons)
    runs = [(BoundPlan(_REFERENCE_SCHEME, model, h_fine, h_fine), window, tuple(horizons))]
    runs += [(BoundPlan(scheme, model, h, h_fine), n, k)
             for scheme in schemes for h, n, k in zip(config.ladder, steps, horizons)]
    chunk = max(1, _CHUNK_BYTES // (8 * window * model.noise_modes))
    ranges = [(first, min(first + chunk, config.paths)) for first in range(0, config.paths, chunk)]
    errors, reference = map(np.hstack, zip(*_range_errors(config, model, runs, ranges)))
    return errors.reshape(len(schemes), len(horizons), config.paths), reference


def _range_errors(config: ExperimentConfig, model: ModelSpec, runs: list, ranges: Iterable):
    """For each path range ``(first, stop)`` of ``ranges``, yields the
    columns of paths first..stop-1: ``errors[run, path]`` of the scheme runs
    and ``reference[h, path]``, for the ``runs`` that :func:`_ladder_errors`
    binds.  Each range's increments are drawn path by path with
    :meth:`NoisePath.draw`, stacked, prepared once and run through the
    reference once; every scheme run then steps from the range's start
    states on its one store, so each distinct term's rows are built once per
    range.  Philox's per-path streams make a path's columns the same under
    any split into ranges.  A non-finite reference raises when its range is
    reached, after the earlier ranges' columns.
    """
    # A generator, not a function per range: each range's arrays stay alive
    # until the next range's replace them, one by one in the order they are
    # made, so the allocator reuses their memory.  Freeing them at each
    # return handed the memory back and faulted it in again: a 32-path
    # criterion-3 study (four ranges) took about 9600 minor page faults
    # instead of 2500-3600 and ran 6 % slower (2-vCPU Xeon, BLAS on one
    # thread).
    (reference_plan, window, horizons), *scheme_runs = runs
    for first, stop in ranges:
        increments = np.stack([NoisePath.draw(
            path_generator(config.seed, index), window, model.noise_modes, config.h_fine
        ).increments for index in range(first, stop)])
        noise = reference_plan.prepare_noise(increments)
        u0 = np.tile(model.initial.coeffs, (len(increments), 1))
        end, recorded = _run(reference_plan, u0, noise, window, horizons)
        if not np.isfinite(end).all():
            failed = _first_failures(reference_plan, u0, noise, end, window)
            raise failed[min(failed)]
        reference = np.array([np.hypot.reduce(recorded[k], axis=-1) for k in horizons])
        store = {}  # the range's rows, for one-step plans
        errors = np.empty((len(scheme_runs), stop - first))
        for norms, (plan, n, k) in zip(errors, scheme_runs):
            approx = _run(plan, u0, noise, n, store=store)[0]
            norms[:] = np.hypot.reduce(approx - recorded[k], axis=-1)
            norms[~np.isfinite(approx).all(axis=-1)] = np.nan
        yield errors, reference


def _row_statistics(h: float, errors: np.ndarray, p: float) -> ErrorRow:
    """Lp error estimate with a delta-method standard error.

    ``errors`` is one h's row of :func:`_ladder_errors`, NaN at excluded
    paths.  The mean of |e|^p over paths has standard error sqrt(var/n);
    mapping through x -> x^(1/p) multiplies it by x^(1/p - 1)/p at the
    estimate.  Where the powers or their moments of finite errors overflow,
    both come from the errors over the row's largest and are scaled back by it.
    """
    excluded = np.isnan(errors)
    n_excluded = int(excluded.sum())
    errors = errors[~excluded]
    if not errors.size:
        return ErrorRow(h=h, error=float("nan"), stderr=float("nan"),
                        n_paths=0, n_excluded=n_excluded)
    try:
        with np.errstate(over="raise"):
            estimate, stderr = _lp_estimate(errors, p)
    except FloatingPointError:
        scale = errors.max()
        estimate, stderr = (float(x * scale) for x in _lp_estimate(errors / scale, p))
    return ErrorRow(h=h, error=estimate, stderr=stderr,
                    n_paths=errors.size, n_excluded=n_excluded)


def _lp_estimate(errors: np.ndarray, p: float) -> tuple[float, float]:
    """The Lp mean of ``errors`` and its standard error (see
    :func:`_row_statistics`)."""
    powers = errors ** p
    n = powers.size
    mean = float(powers.mean())
    estimate = mean ** (1.0 / p)
    if n > 1 and mean > 0.0:
        se_mean = float(powers.std(ddof=1)) / np.sqrt(n)
        stderr = se_mean * estimate / (p * mean)
    else:
        stderr = 0.0
    return estimate, float(stderr)


def _regression_slope(rows, floors, multi_step=False) -> tuple[float | None, int, str | None]:
    """OLS slope of log error against log h, the count of rows fitted, and
    the reason when there is no slope.

    Rows whose error is non-finite, at or below the row's rounding floor in
    ``floors`` (which covers exact zeros), or within three standard errors
    of zero are excluded.  When fewer than two rows remain but two or more
    would without the floor, the scheme equals the reference to rounding on
    this ladder: the slope is None with ``ROUNDING_REASON``.  Any other
    shortfall is ``SHORTFALL_REASON`` in a multi-step run, which gives no
    verdict, and raises :class:`HarnessError` in a one-step run.
    """
    finite = [(row, floor) for row, floor in zip(rows, floors) if np.isfinite(row.error)]
    above = [row for row, floor in finite if row.error > floor]
    usable = [row for row in above if row.error - 3.0 * row.stderr > 0.0]
    if len(usable) < 2:
        if len(usable) + len(finite) - len(above) >= 2:
            return None, len(usable), ROUNDING_REASON
        if multi_step:
            return None, len(usable), SHORTFALL_REASON
        raise HarnessError("fewer than two usable ladder points for regression")
    xs = np.log([row.h for row in usable])
    ys = np.log([row.error for row in usable])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, len(usable), None


def run_study(config: ExperimentConfig, schemes: tuple[str, ...]) -> tuple[ErrorReport, ...]:
    """One report per scheme, a builtin name or wood text, all on the same
    paths: every scheme reads each chunk's one noise window and reference
    run.  Each report equals ``run_convergence`` of the config with its
    scheme set to that name."""
    config.validate()
    model = build_model(config.model, config.modes, config.noise_modes, config.r)
    resolved = [resolve_scheme(name) for name in schemes]
    predicted = [order_wood(wood).evaluate(model.gamma, model.delta) for _, wood in resolved]
    errors, reference = _ladder_errors(config, tuple(s for s, _ in resolved), model)
    ladder, p = config.ladder, config.p_norm
    # Each row's floor scales the Lp size of the reference states it compares with.
    unit = ROUNDING_FLOOR_EPS * float(np.finfo(float).eps)
    floors = [unit * _row_statistics(h, row, p).error for h, row in zip(ladder, reference)]
    reports = []
    for name, order, scheme_errors in zip(schemes, predicted, errors):
        rows = tuple(_row_statistics(h, row, p) for h, row in zip(ladder, scheme_errors))
        slope, used, reason = _regression_slope(rows, floors, config.multi_step)
        verdict = margin = None
        if slope is not None and not config.multi_step:
            verdict = order - SLOPE_BELOW <= slope <= order + SLOPE_ABOVE
            margin = slope - (order - SLOPE_BELOW)
        reports.append(ErrorReport(
            config=replace(config, scheme=name), rows=rows, slope=slope, predicted=order,
            verdict=verdict, margin=margin, gamma=model.gamma, delta=model.delta,
            regression_rows=used, reason=reason,
        ))
    return tuple(reports)


def run_convergence(config: ExperimentConfig) -> ErrorReport:
    """The study of ``config.scheme`` alone."""
    return run_study(config, (config.scheme,))[0]


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

CSV_HEADER = "h,error,stderr,n_paths,n_excluded"


def verdict_text(verdict: bool | None) -> str | None:
    """``pass``, ``fail``, or None for a run without a verdict."""
    if verdict is None:
        return None
    return "pass" if verdict else "fail"


def render_csv(report: ErrorReport) -> str:
    """The report's rows under ``CSV_HEADER``, floats in repr form."""
    if not report.rows:
        raise ReportError("no data rows")
    lines = [CSV_HEADER]
    for row in report.rows:
        lines.append(
            f"{row.h!r},{row.error!r},{row.stderr!r},{row.n_paths},{row.n_excluded}"
        )
    return "\n".join(lines) + "\n"


def render_json(report: ErrorReport) -> str:
    """The report as sorted, strict JSON (RFC 8259), with a ``run_id``
    hashed from its config; ``reason`` appears only in a report without a
    slope.  A row's non-finite error or stderr, as of a row with no paths,
    is ``null``; the CSV keeps ``nan``."""
    if not report.rows:
        raise ReportError("no data rows")
    config = asdict(report.config)
    run_id = sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    payload = {
        "config": config,
        "metadata": {
            "package": "spde-taylor",
            "version": __version__,
            "numpy": np.__version__,
            "run_id": run_id,
        },
        "gamma": report.gamma,
        "delta": report.delta,
        "predicted_order": report.predicted,
        "slope": report.slope,
        "regression_rows": report.regression_rows,
        "verdict": verdict_text(report.verdict),
        "margin": report.margin,
        "bounds": [report.lower_bound, report.upper_bound],
        "rows": [
            {key: None if isinstance(value, float) and not math.isfinite(value) else value
             for key, value in asdict(row).items()}
            for row in report.rows
        ],
    }
    if report.reason is not None:  # the key is absent from reports with a slope
        payload["reason"] = report.reason
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def report_emit(report: ErrorReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write report.csv and report.json under out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    json_path = out / "report.json"
    csv_path.write_text(render_csv(report), encoding="utf-8")
    json_path.write_text(render_json(report), encoding="utf-8")
    return csv_path, json_path


def symbolic_report(wood_text: str) -> str:
    """Human-readable summary of a wood: size, active set, order, terms."""
    wood = parse(wood_text)
    lines = [f"trees: {wood.length}"]
    nodes = active_nodes(wood)
    if nodes:
        rendered = ", ".join(f"({i},{j})" for i, j in nodes)
    else:
        rendered = "none"
    lines.append(f"active nodes: {rendered}")
    try:
        lines.append(f"order: {order_wood(wood).symbolic()}")
    except NoActiveTreeError:
        lines.append("order: undefined (no active tree)")
    scheme = compile_scheme(psi(wood), source_wood=wood)
    lines.append(f"computable terms: {scheme.describe()}")
    required = scheme.required_orders
    drift = sorted(required.drift)
    diffusion = sorted(required.diffusion)
    lines.append(f"required drift derivative orders: {drift or 'none'}")
    lines.append(f"required diffusion derivative orders: {diffusion or 'none'}")
    lines.append(f"canonical text: {serialize(wood)}")
    return "\n".join(lines)
