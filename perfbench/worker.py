"""One benchmark workload in one process; launched by ``run.py``.

The worker imports ``spde_taylor`` from the checkout's ``src``, sets up the
workload, warms it up, and then runs ops one after another (closed loop,
single thread) for the requested time.  Its last stdout line is a JSON
object that ``run.py`` turns into the benchmark result.

``--launched-at`` is the parent's ``time.monotonic()`` just before it
started this process; CLOCK_MONOTONIC is system-wide on Linux, so
``setup_s`` spans interpreter start, imports, model build, scheme
resolution, workspace and warm-up.  The worker runs a speed probe
(``speed.py``) right after set-up; the parent ran one just before the
launch, and the two bracket ``setup_s``.  In the timed body, ops run in
blocks of at least ``PROBE_BLOCK_S`` with a probe between blocks, and each
op's latency is reported at the host's nominal speed.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import spde_taylor  # noqa: E402
from spde_taylor import engine, harness, models, terms, trees  # noqa: E402

import speed  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"
MIN_OPS = 100
# Ops between two speed probes take at least this long; the probe costs
# about 2.5 ms, so it adds at most ~5% to the wall time of the body.
PROBE_BLOCK_S = 0.05
MAX_TRACEBACKS = 3
# Scheme of each op of order-heat-mult, in turn.  The median and p90 of a
# 1:1:1:1 mix sit on the gaps between the schemes' latency clusters, where
# they jump from run to run; this mix puts the median inside the
# milstein-b0 cluster and p90 inside the full-2nd cluster.
HEAT_CYCLE = ("taylor-delta", "exp-euler", "milstein-b0", "milstein-b0", "full-2nd")


class OrderHeatMult:
    """Criterion-3 shape with the path count reduced; an op is one coupled
    path of one scheme (noise draw, reference, five coarse steps), built the
    way ``harness.run_convergence`` builds each of its paths."""

    name = "order-heat-mult"
    CYCLE = HEAT_CYCLE
    FIRST = {name: HEAT_CYCLE.index(name) for name in HEAT_CYCLE}
    TRACE_OPS = 50

    def __init__(self, seed: int):
        self.seed = seed
        self.first_errors: dict[int, bytes] = {}

    def setup(self) -> None:
        self.config = harness.ExperimentConfig(
            model="heat-mult", t_end=1.0, fine_log2=12, ladder_log2=(4, 5, 6, 7, 8),
            paths=2, seed=self.seed, r=0.005, modes=64, noise_modes=64,
        )
        c = self.config
        self.model = models.build_model(c.model, c.modes, c.noise_modes, c.r)
        self.workspace = self.model.workspace()
        self.grid_points = self.workspace.grid_points
        self.schemes = {name: harness.resolve_scheme(name)[0] for name in self.CYCLE}
        self.ladder = sorted(c.ladder, reverse=True)
        self.substeps = [int(round(h / c.h_fine)) for h in self.ladder]

    def warm_up(self) -> None:
        for index in self.FIRST.values():
            self.op(index)

    def errors(self, index: int) -> list[float]:
        model, workspace, u0 = self.model, self.workspace, self.model.initial
        scheme = self.schemes[self.CYCLE[index % len(self.CYCLE)]]
        path = engine.NoisePath.draw(
            engine.path_generator(self.seed, index),
            self.substeps[0], model.noise_modes, self.config.h_fine,
        )
        _, recorded = engine.reference_solve(
            u0, self.ladder[0], path, model, workspace, record_substeps=tuple(self.substeps)
        )
        out = []
        for h, k in zip(self.ladder, self.substeps):
            approx = engine.step(scheme, u0, h, path.prefix(k), model, workspace).state
            out.append(float(np.linalg.norm(approx.coeffs - recorded[k].coeffs)))
        return out

    def op(self, index: int) -> bool:
        errors = self.errors(index)
        if index in self.FIRST.values():
            self.first_errors[index] = np.asarray(errors).tobytes()
        return bool(np.all(np.isfinite(errors)))

    def checks(self, ops: int) -> list[tuple[str, bool, str]]:
        out = []
        model, workspace, u0 = self.model, self.workspace, self.model.initial
        h_fine = self.config.h_fine
        path = engine.NoisePath.draw(
            engine.path_generator(self.seed, 0), 1, model.noise_modes, h_fine
        )
        stepped = engine.step(self.schemes["exp-euler"], u0, h_fine, path, model, workspace)
        reference, _ = engine.reference_solve(u0, h_fine, path, model, workspace)
        out.append(("exp-euler at h_fine bitwise equals reference",
                    stepped.state.coeffs.tobytes() == reference.coeffs.tobytes(), ""))

        for name, index in self.FIRST.items():
            again = np.asarray(self.errors(index)).tobytes()
            out.append((f"rerun of first {name} path byte-identical",
                        again == self.first_errors.get(index), f"path {index}"))

        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        rtol = golden["rtol"]
        for name, want in golden["errors"].items():
            config = replace(self.config, scheme=name, seed=golden["seed"], paths=golden["paths"])
            report = harness.run_convergence(config)
            harness.render_json(report)
            harness.render_csv(report)
            got = [row.error for row in report.rows]
            excluded = sum(row.n_excluded for row in report.rows)
            worst = max(abs(g - w) / abs(w) for g, w in zip(got, want))
            ok = len(got) == len(want) and excluded == 0 and worst <= rtol
            out.append((f"golden per-h errors of {name} at seed {golden['seed']}", ok,
                        f"max rel diff {worst:.2e} (rtol {rtol:g}), excluded {excluded}"))
        return out


class VarianceHeatAdd:
    """Criterion-4 shape: one ``exp-euler-nodrift`` step of h = 2^-4 from
    zero over 8192 fine substeps of the diagonal additive model.  An op is
    one sampled path."""

    name = "variance-heat-add"
    TRACE_OPS = 3000
    H = 2.0**-4
    H_FINE = 2.0**-17
    MODES = 8
    # The Ito-isometry test uses a fixed number of samples, so its power and
    # false-alarm rate do not change when the program gets faster.
    CHECK_SAMPLES = 4096
    # Modes are independent, so the 8 per-mode z-scores and their pooled sum
    # / sqrt(8) are each N(0, 1) under the isometry: |z| < 5 on all nine
    # gives false alarms of about 9 * P(|Z| > 5) ~ 5e-6 per run.  The pooled
    # score catches an error shared by all modes (a 5% variance error gives
    # pooled z ~ 6 at 4096 samples).  The left-point sum's bias (-0.5% on
    # mode 8) shifts the scores by at most ~0.25.
    Z_MAX = 5.0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.model = models.build_model("heat-add", self.MODES, self.MODES, 0.005)
        self.workspace = self.model.workspace()
        self.grid_points = self.workspace.grid_points
        self.scheme = engine.builtin_scheme("exp-euler-nodrift")
        self.zero = models.SpectralState(np.zeros(self.MODES))
        self.substeps = int(round(self.H / self.H_FINE))
        self.samples = np.zeros((self.CHECK_SAMPLES, self.MODES))

    def warm_up(self) -> None:
        self.op(0)

    def op(self, index: int) -> bool:
        path = engine.NoisePath.draw(
            engine.path_generator(self.seed, index),
            self.substeps, self.model.noise_modes, self.H_FINE,
        )
        coeffs = engine.step(
            self.scheme, self.zero, self.H, path, self.model, self.workspace
        ).state.coeffs
        if index < self.CHECK_SAMPLES:
            self.samples[index] = coeffs
        return bool(np.all(np.isfinite(coeffs)))

    def checks(self, ops: int) -> list[tuple[str, bool, str]]:
        n = min(ops, self.CHECK_SAMPLES)
        variances = self.samples[:n].var(axis=0, ddof=1)
        expected = models.convolution_variances(self.model, self.H)
        z = (variances - expected) / (expected * np.sqrt(2.0 / (n - 1)))
        pooled = float(z.sum() / np.sqrt(z.size))
        worst = float(np.abs(z).max())
        return [("Ito-isometry variances", max(worst, abs(pooled)) < self.Z_MAX,
                 f"max mode |z| {worst:.2f}, pooled z {pooled:.2f}, limit {self.Z_MAX} "
                 f"over {n} samples")]


class SymbolicExpand:
    """Seeded random expansion sequences of depth 10 from the initial wood;
    an op is one wood taken through the symbolic pipeline."""

    name = "symbolic-expand"
    TRACE_OPS = 1000
    DEPTH = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.grid_points = None

    def setup(self) -> None:
        self.start = trees.initial_wood()

    def warm_up(self) -> None:
        for index in range(5):
            self.op(index)

    def op(self, index: int) -> bool:
        rnd = random.Random(f"{self.seed}/{index}")
        wood = self.start
        for _ in range(self.DEPTH):
            wood = trees.expand(wood, rnd.choice(trees.active_nodes(wood)))
        kept = terms.psi(wood)
        engine.compile_scheme(kept, source_wood=wood)
        trees.order_wood(wood)
        text = trees.serialize(wood)
        round_trip = trees.serialize(trees.parse(text))
        at = rnd.choice(trees.active_nodes(wood))
        matches = terms.expansion_matches_rewrite(wood, at, trees.expand(wood, at))
        return matches and not terms.contains_starred(kept) and round_trip == text

    def checks(self, ops: int) -> list[tuple[str, bool, str]]:
        return []


WORKLOADS = {w.name: w for w in (OrderHeatMult, VarianceHeatAdd, SymbolicExpand)}


def timed_op(workload, index: int, quiet: bool) -> tuple[float, bool]:
    """Wall time and verdict of one op; an op that raises has failed."""
    t0 = time.perf_counter()
    try:
        ok = workload.op(index)
    except Exception:
        ok = False
        if not quiet:
            traceback.print_exc()
    return time.perf_counter() - t0, ok


def run_ops(workload, seconds: float):
    """Closed loop from op 0 until the first cycle boundary after
    ``seconds`` once ``MIN_OPS`` ops are done.

    Ops run in blocks of at least ``PROBE_BLOCK_S`` of wall time with a
    speed probe between blocks.  Returns each op's wall latency, its latency
    at nominal speed (from the probes that bracket its block), the probe
    time of each block, the failed-op count and the body's wall time.
    """
    cycle = len(getattr(workload, "CYCLE", (None,)))
    wall: list[float] = []
    latencies: list[float] = []
    probes: list[float] = []
    failed = 0
    start = time.perf_counter()

    def more() -> bool:
        done = len(wall)
        return done % cycle or done < MIN_OPS or time.perf_counter() - start < seconds

    before = speed.probe()
    while more():
        block_start = time.perf_counter()
        while True:
            dt, ok = timed_op(workload, len(wall), quiet=failed >= MAX_TRACEBACKS)
            wall.append(dt)
            failed += not ok
            if time.perf_counter() - block_start >= PROBE_BLOCK_S or not more():
                break
        after = speed.probe()
        probe_s = speed.bracket(before, after)
        block = wall[len(latencies):]
        latencies.extend(speed.nominal(dt, probe_s) for dt in block)
        probes.append(probe_s)
        before = after
    return wall, latencies, probes, failed, time.perf_counter() - start


def run_traced(workload, tracer):
    """Set-up, ``TRACE_OPS`` ops and the checks with the tracer installed.

    The op count is fixed so the traced counts repeat exactly.  Each op also
    runs untraced right before or after its traced run (the order
    alternates), so both see the same machine state; the ratio of their
    times is the tracing overhead.
    """
    tracer.install()
    workload.setup()
    tracer.uninstall()
    latencies: list[float] = []
    failed = 0
    plain = 0.0
    for index in range(workload.TRACE_OPS):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            dt, ok = timed_op(workload, index, quiet=failed >= MAX_TRACEBACKS)
            if traced:
                tracer.uninstall()
                latencies.append(dt)
                failed += not ok
            else:
                plain += dt
    tracer.install()
    checks = run_checks(workload, len(latencies))
    tracer.uninstall()
    return latencies, failed, plain, checks


def run_checks(workload, ops: int) -> list[dict]:
    try:
        results = workload.checks(ops)
    except Exception:
        traceback.print_exc()
        results = [("run checks", False, "raised")]
    return [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in results]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(spde_taylor.__file__).resolve().parent != SRC / "spde_taylor":
        print(f"spde_taylor imported from {spde_taylor.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    workload.warm_up()
    setup_s = time.monotonic() - args.launched_at
    result = {
        "setup_s": setup_s,
        "setup_probe": speed.probe(),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "grid_points": workload.grid_points,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        wall, failed, plain, checks = run_traced(workload, tracer)
        latencies = wall
        body_s = wall_s = sum(wall)
        layer = tracer.metrics()
        layer["trace.overhead_frac"] = (body_s / plain - 1.0, "frac")
        tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result["layer"] = layer
        result["missing"] = tracer.missing
    else:
        wall, latencies, probes, failed, wall_s = run_ops(workload, args.seconds)
        body_s = sum(latencies)
        checks = run_checks(workload, len(wall))
        result["probe_ms_p50"] = 1e3 * statistics.median(probes)
        result["probes"] = len(probes)

    ms = sorted(1e3 * t for t in latencies)
    wall_ms = sorted(1e3 * t for t in wall)
    result.update({
        "ops": len(latencies),
        "failed_ops": failed,
        "body_s": body_s,
        "wall_s": wall_s,
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "wall_op_ms_p50": statistics.median(wall_ms),
        "wall_op_ms_p90": statistics.quantiles(wall_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
