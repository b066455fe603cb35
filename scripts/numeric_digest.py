#!/usr/bin/env python3
"""SHA-256 digests of the engine's and the harness's numeric outputs.

A refactor that keeps every number byte-identical leaves every digest
unchanged; run the script before and after the change and compare.  It
prints one line per family, ``<name> <hex>``:

    mult32 mult16x8 mult8x16 mult64    states of heat-mult at N x M
    add8 add8x4 add4x8                 states of heat-add at N x M
    order_shape variance_shape         the two pinned benchmark shapes
    report-<model>-<multi>-json        report.json of the five builtins
    report-<model>-<multi>-csv         report.csv of the five builtins

Framing: each digest hashes the raw bytes of its outputs in the order
listed below, with no separators: a state as its float64 coefficients
(``tobytes()``), a report as its UTF-8 text.

* States, per model shape, on paths of ``path_generator(11, p)`` at
  h_fine = 2^-10:
  - ``step()`` of each builtin in sorted name order, from the model's start
    state on path 0, at 1, 2, 16 and 256 substeps;
  - ``_run`` of each builtin at 1, 4 and 64 substeps per step, four steps
    with records after steps 1 and 2: first a batch of paths 0..2 (the
    end states, then the records of step 1 and step 2), then path 0 alone,
    unbatched, in the same order;
  - ``reference_solve`` over 256 substeps of path 0: the end state, then
    the snapshots after 1, 16 and 64 substeps.
* ``order_shape``: paths 0..7 of criterion 3's shape (heat-mult at
  N = M = 64, h_fine = 2^-12, seed 2024), the reference snapshots, then
  each scheme's one-step states from h = 2^-4 down to 2^-8;
  ``variance_shape``: criterion 4's shape, the one-step states of 64
  paths (see the functions below).
* Reports: ``run_convergence`` of each builtin in sorted name order at
  N = M = 16, fine 2^-8, ladder 2^-2..2^-4, 6 paths and seed 11, one-step
  (``False``) and multi-step (``True``).  A scheme whose study raises
  ``HarnessError`` contributes the error's message to both digests.  The
  JSON holds the package and numpy versions, so its digests move with
  either.

BLAS products of one shape can round differently with the thread count,
so the script runs BLAS and its kin on one thread, as ``perfbench/run.py``
does: it imports ``blas_threads`` before numpy, which sets each of that
script's ``THREAD_VARS`` to 1.  ``--threads N`` sets them to N instead,
before numpy is imported; the pins hold on one thread.  They also round
differently with the BLAS kernel, so the script writes one line to
stderr, ``blas kernel: <name>``: the kernel numpy's bundled OpenBLAS runs
(``SkylakeX``, say), or ``unknown``; ``tests/test_numeric_digest.py``
keys its pins by that name.

With ``--values DIR`` the script also writes each family's float64
values to ``DIR/<family>.npy``: the states of a state or shape family in
digest order, and each report's slope, margin and rows' errors and
standard errors for a report family (NaN for None).  ``--compare DIR_A
DIR_B`` prints, for each family dumped in both, two numbers that a change
that moves a digest states: the largest change of any value relative to
that value, max |b - a| / |a|, and relative to the family's scale,
max |b - a| / max |a|.  The first reads huge where a value that cancelled
to nearly zero moves by rounding; the second does not.  It exits 1 when a
family moved, is missing from DIR_B or changed its count of values, and 0
when every family kept its values.

    python3 scripts/numeric_digest.py            # every family
    python3 scripts/numeric_digest.py add8 mult16x8
    python3 scripts/numeric_digest.py --values before/    # at the parent
    python3 scripts/numeric_digest.py --values after/     # at the change
    python3 scripts/numeric_digest.py --compare before/ after/
    python3 scripts/numeric_digest.py --threads 2 --values two/
"""

import argparse
import ctypes
import hashlib
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import blas_threads


def _positive(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"{count} is not a positive count")
    return count


def arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Print the numeric digests, dump or compare the values behind them."
    )
    parser.add_argument("families", nargs="*", help="families to run (default: all)")
    parser.add_argument("--values", type=Path, metavar="DIR",
                        help="also write each family's float64 values to DIR/<family>.npy")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="print each family's largest change from DIR_A to DIR_B, "
                             "relative to each value and to the family's scale; exit 1 if "
                             "any family differs")
    parser.add_argument("--threads", type=_positive, default=1, metavar="N",
                        help="threads of BLAS and its kin (default: 1)")
    return parser.parse_args(argv)


if __name__ == "__main__":  # the thread count reaches BLAS only before numpy loads
    blas_threads.use(arguments(sys.argv[1:]).threads)

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "src"))

from spde_taylor.engine import (  # noqa: E402
    BUILTIN_WOODS,
    BoundPlan,
    NoisePath,
    _run,
    builtin_scheme,
    path_generator,
    reference_solve,
    step,
)
from spde_taylor.harness import (  # noqa: E402
    ExperimentConfig,
    HarnessError,
    render_csv,
    render_json,
    run_convergence,
)
from spde_taylor.models import (  # noqa: E402
    SpectralState,
    heat_additive_model,
    heat_multiplicative_model,
)

SEED, H_FINE, WINDOW = 11, 2.0**-10, 256
NAMES = sorted(BUILTIN_WOODS)

#: State families: name -> (model builder, N, M).
STATE_FAMILIES = {
    "mult32": (heat_multiplicative_model, 32, 32),
    "mult16x8": (heat_multiplicative_model, 16, 8),
    "mult8x16": (heat_multiplicative_model, 8, 16),
    "mult64": (heat_multiplicative_model, 64, 64),
    "add8": (heat_additive_model, 8, 8),
    "add8x4": (heat_additive_model, 8, 4),
    "add4x8": (heat_additive_model, 4, 8),
}


def blas_kernel() -> str:
    """The kernel that numpy's bundled OpenBLAS runs, read through its
    ``scipy_openblas_get_corename64_``, or ``unknown`` where numpy's core
    has no such function."""
    try:
        from numpy._core import _multiarray_umath

        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _digest(chunks) -> str:
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk)
    return hasher.hexdigest()


def _state_bytes(build, modes, noise_modes):
    model = build(modes, noise_modes)
    u0 = model.initial
    increments = np.stack([
        NoisePath.draw(path_generator(SEED, p), WINDOW, noise_modes, H_FINE).increments
        for p in range(3)
    ])
    path = NoisePath(increments[0], h_fine=H_FINE)
    for name in NAMES:
        scheme = builtin_scheme(name)
        for substeps in (1, 2, 16, 256):
            state = step(scheme, u0, substeps * H_FINE, path.prefix(substeps), model).state
            yield state.coeffs.tobytes()
    for name in NAMES:
        scheme = builtin_scheme(name)
        for substeps in (1, 4, 64):
            plan = BoundPlan(scheme, model, substeps * H_FINE, H_FINE)
            window = increments[:, : 4 * substeps]
            for batch, states in ((window, np.tile(u0.coeffs, (3, 1))), (window[0], u0.coeffs)):
                end, recorded = _run(plan, states, plan.prepare_noise(batch), 4, (1, 2))
                for out in (end, recorded[1], recorded[2]):
                    yield out.tobytes()
    end, snapshots = reference_solve(
        u0, WINDOW * H_FINE, path, model, record_substeps=(1, 16, 64)
    )
    yield end.coeffs.tobytes()
    for k in (1, 16, 64):
        yield snapshots[k].coeffs.tobytes()


def _floats(chunks: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(chunks), dtype=float)


def state_family(name: str):
    """The digest and the values of the state family ``name``."""
    chunks = list(_state_bytes(*STATE_FAMILIES[name]))
    return {name: _digest(chunks)}, _floats(chunks)


def _order_shape_bytes():
    """Paths 0..7 of criterion 3's shape: the reference snapshots, then each
    scheme's one-step states from h = 2^-4 down to 2^-8."""
    model = heat_multiplicative_model(64, 64)
    u0, h_fine, substeps = model.initial, 2.0**-12, (256, 128, 64, 32, 16)
    names = ("taylor-delta", "exp-euler", "milstein-b0", "full-2nd")
    schemes = [builtin_scheme(name) for name in names]
    for index in range(8):
        path = NoisePath.draw(path_generator(2024, index), 256, 64, h_fine)
        _, recorded = reference_solve(u0, 256 * h_fine, path, model, record_substeps=substeps)
        for k in sorted(substeps):
            yield recorded[k].coeffs.tobytes()
        for scheme in schemes:
            for k in substeps:
                state = step(scheme, u0, k * h_fine, path.prefix(k), model).state
                yield state.coeffs.tobytes()


def _variance_shape_bytes():
    """Criterion 4's shape: the one-step states of 64 paths, in path order."""
    model = heat_additive_model(8, 8)
    scheme, zero = builtin_scheme("exp-euler-nodrift"), SpectralState(np.zeros(8))
    for index in range(64):
        path = NoisePath.draw(path_generator(2024, index), 8192, 8, 2.0**-17)
        yield step(scheme, zero, 2.0**-4, path, model).state.coeffs.tobytes()


def shape_family(name: str, outputs):
    chunks = list(outputs())
    return {name: _digest(chunks)}, _floats(chunks)


def report_family(model: str, multi_step: bool):
    """The JSON and CSV digests of one report family, and its values: each
    report's slope, margin and rows' errors and standard errors, NaN for
    None."""
    config = ExperimentConfig(
        model=model, fine_log2=8, ladder_log2=(2, 3, 4), paths=6, seed=SEED,
        modes=16, noise_modes=16, multi_step=multi_step,
    )
    texts: dict[str, list[str]] = {"json": [], "csv": []}
    values: list[float | None] = []
    for name in NAMES:
        try:
            report = run_convergence(replace(config, scheme=name))
        except HarnessError as exc:
            texts["json"].append(str(exc))
            texts["csv"].append(str(exc))
            continue
        texts["json"].append(render_json(report))
        texts["csv"].append(render_csv(report))
        values += [report.slope, report.margin]
        values += [x for row in report.rows for x in (row.error, row.stderr)]
    prefix = f"report-{model}-{multi_step}"
    digests = {
        f"{prefix}-{kind}": _digest(text.encode("utf-8") for text in parts)
        for kind, parts in texts.items()
    }
    return digests, np.array([np.nan if v is None else v for v in values], dtype=float)


#: Family name -> a function returning its digests by name and its values.
FAMILIES = {
    **{name: partial(state_family, name) for name in STATE_FAMILIES},
    "order_shape": partial(shape_family, "order_shape", _order_shape_bytes),
    "variance_shape": partial(shape_family, "variance_shape", _variance_shape_bytes),
    **{f"report-{model}-{multi_step}": partial(report_family, model, multi_step)
       for model in ("heat-mult", "heat-add") for multi_step in (False, True)},
}


def digests(names=None, values_dir: Path | None = None) -> dict[str, str]:
    """Every digest of the named families (all by default), in order; with
    ``values_dir``, each family's values go to ``<family>.npy`` there."""
    out: dict[str, str] = {}
    for name in names or FAMILIES:
        family, values = FAMILIES[name]()
        out.update(family)
        if values_dir is not None:
            np.save(values_dir / f"{name}.npy", values)
    return out


def largest_relative_changes(before: np.ndarray, after: np.ndarray) -> tuple[float, float]:
    """max |after - before| / |before| and max |after - before| / max
    |before|, the scale taken over the finite values; equal values, NaNs
    included, change by 0, and a zero that moves, or a NaN that comes or
    goes, by inf."""
    same = (before == after) | (np.isnan(before) & np.isnan(after))
    scale = np.max(np.abs(before), where=np.isfinite(before), initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        moved = np.abs(after - before)
        changes = (np.where(same, 0.0, moved / np.abs(before)), np.where(same, 0.0, moved / scale))
    return tuple(float(np.nan_to_num(c, nan=np.inf).max(initial=0.0)) for c in changes)


def compare(before_dir: Path, after_dir: Path) -> tuple[list[str], bool]:
    """One line per family dumped in ``before_dir``: its name and the
    largest change of its values relative to each value and to the
    family's scale, or why there are none;
    and whether any family moved, is missing from ``after_dir`` or changed
    its count of values."""
    lines, differ = [], False
    for path in sorted(before_dir.glob("*.npy")):
        other = after_dir / path.name
        if not other.exists():
            lines.append(f"{path.stem} missing from {after_dir}")
            differ = True
            continue
        before, after = np.load(path), np.load(other)
        if before.shape != after.shape:
            lines.append(f"{path.stem} has {before.size} values, then {after.size}")
            differ = True
            continue
        per_value, scaled = largest_relative_changes(before, after)
        lines.append(f"{path.stem} {per_value:.3g} {scaled:.3g}")
        differ = differ or per_value != 0.0
    return lines, differ


def main(argv: list[str]) -> int:
    args = arguments(argv)
    if args.compare:
        lines, differ = compare(*args.compare)
        print("\n".join(lines))
        return 1 if differ else 0
    unknown = [name for name in args.families if name not in FAMILIES]
    if unknown:
        print(f"unknown families {unknown}; available: {list(FAMILIES)}", file=sys.stderr)
        return 1
    if args.values is not None:
        args.values.mkdir(parents=True, exist_ok=True)
    print(f"blas kernel: {blas_kernel()}", file=sys.stderr)
    for name, hexdigest in digests(args.families, args.values).items():
        print(f"{name} {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
