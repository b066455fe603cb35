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

    python3 scripts/numeric_digest.py            # every family
    python3 scripts/numeric_digest.py add8 mult16x8
"""

import hashlib
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spde_taylor.engine import (
    BUILTIN_WOODS,
    BoundPlan,
    NoisePath,
    _run,
    builtin_scheme,
    path_generator,
    reference_solve,
    step,
)
from spde_taylor.harness import (
    ExperimentConfig,
    HarnessError,
    render_csv,
    render_json,
    run_convergence,
)
from spde_taylor.models import SpectralState, heat_additive_model, heat_multiplicative_model

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
                end, recorded, _ = _run(plan, states, plan.prepare_noise(batch), 4, (1, 2))
                for out in (end, recorded[1], recorded[2]):
                    yield out.tobytes()
    end, snapshots = reference_solve(
        u0, WINDOW * H_FINE, path, model, record_substeps=(1, 16, 64)
    )
    yield end.coeffs.tobytes()
    for k in (1, 16, 64):
        yield snapshots[k].coeffs.tobytes()


def state_digest(name: str) -> dict[str, str]:
    """The digest of the state family ``name``."""
    return {name: _digest(_state_bytes(*STATE_FAMILIES[name]))}


def order_shape_digest() -> str:
    """Paths 0..7 of criterion 3's shape: the reference snapshots, then each
    scheme's one-step states from h = 2^-4 down to 2^-8."""
    model = heat_multiplicative_model(64, 64)
    u0, h_fine, substeps = model.initial, 2.0**-12, (256, 128, 64, 32, 16)
    names = ("taylor-delta", "exp-euler", "milstein-b0", "full-2nd")
    schemes = [builtin_scheme(name) for name in names]

    def chunks():
        for index in range(8):
            path = NoisePath.draw(path_generator(2024, index), 256, 64, h_fine)
            _, recorded = reference_solve(
                u0, 256 * h_fine, path, model, record_substeps=substeps
            )
            for k in sorted(substeps):
                yield recorded[k].coeffs.tobytes()
            for scheme in schemes:
                for k in substeps:
                    state = step(scheme, u0, k * h_fine, path.prefix(k), model).state
                    yield state.coeffs.tobytes()

    return _digest(chunks())


def variance_shape_digest() -> str:
    """Criterion 4's shape: the one-step states of 64 paths, in path order."""
    model = heat_additive_model(8, 8)
    scheme, zero = builtin_scheme("exp-euler-nodrift"), SpectralState(np.zeros(8))
    return _digest(
        step(
            scheme, zero, 2.0**-4,
            NoisePath.draw(path_generator(2024, index), 8192, 8, 2.0**-17), model,
        ).state.coeffs.tobytes()
        for index in range(64)
    )


def report_digests(model: str, multi_step: bool) -> dict[str, str]:
    """The JSON and CSV digests of one report family."""
    config = ExperimentConfig(
        model=model, fine_log2=8, ladder_log2=(2, 3, 4), paths=6, seed=SEED,
        modes=16, noise_modes=16, multi_step=multi_step,
    )
    texts = {"json": [], "csv": []}
    for name in NAMES:
        try:
            report = run_convergence(replace(config, scheme=name))
        except HarnessError as exc:
            texts["json"].append(str(exc))
            texts["csv"].append(str(exc))
            continue
        texts["json"].append(render_json(report))
        texts["csv"].append(render_csv(report))
    prefix = f"report-{model}-{multi_step}"
    return {
        f"{prefix}-{kind}": _digest(text.encode("utf-8") for text in parts)
        for kind, parts in texts.items()
    }


#: Family name -> a function returning its digests by name.
FAMILIES = {
    **{name: partial(state_digest, name) for name in STATE_FAMILIES},
    "order_shape": lambda: {"order_shape": order_shape_digest()},
    "variance_shape": lambda: {"variance_shape": variance_shape_digest()},
    **{f"report-{model}-{multi_step}": partial(report_digests, model, multi_step)
       for model in ("heat-mult", "heat-add") for multi_step in (False, True)},
}


def digests(names=None) -> dict[str, str]:
    """Every digest of the named families (all by default), in order."""
    out: dict[str, str] = {}
    for name in names or FAMILIES:
        out.update(FAMILIES[name]())
    return out


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in FAMILIES]
    if unknown:
        print(f"unknown families {unknown}; available: {list(FAMILIES)}", file=sys.stderr)
        return 1
    for name, hexdigest in digests(argv).items():
        print(f"{name} {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
