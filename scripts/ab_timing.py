#!/usr/bin/env python3
"""Interleaved A/B timing of two ``spde_taylor`` source trees in one process.

Separate processes on one host can time the same code tens of percent
apart; rounds that alternate between two trees loaded side by side share
the host's state, so their differences are the code's.  Each round imports
both trees afresh under names of its own (the package imports itself
relatively), with BLAS on one thread, so each round draws the copies'
memory layout anew and the medians average it out.  Two copies of one tree
loaded once used to time up to 15 % apart for as long as they lived, while
their sine matrices started at varying offsets from a cache line; with the
matrices aligned, a tree against itself reads median ratios of 0.97 to
1.01 over 20 rounds of 32 paths (2-vCPU Xeon host).  After a warm-up, each
round times, on each side, with the side that goes first alternating from
round to round:

* ``reference``: one path's 256-substep reference (criterion 3's shape:
  heat-mult at N = M = 64, h_fine = 2^-12), per path;
* ``steps <scheme>``: the five ``step()`` calls of an order-heat-mult op
  (h = 2^-4 down to 2^-8 on prefixes of a fresh path whose reference has
  run), per path, for each of the four schemes;
* ``op <scheme>``: the whole op of those steps (the fresh path's draw, its
  reference and the five ``step()`` calls), per path: a piece's gain
  shrinks at the op by the share of the op that the piece takes;
* ``ladder``: criterion 3's ``harness._ladder_errors`` over ``--paths``
  paths, the four schemes at once;
* ``variance``: the variance-heat-add op of ``perfbench/worker.py``
  (criterion 4's shape: a fresh path's 8192 x 8 Philox increments at
  h_fine = 2^-17, then one ``exp-euler-nodrift`` ``step()`` of h = 2^-4
  on heat-add at N = M = 8 from zero), per path;
* ``symbolic``: the symbolic-expand op of ``perfbench/worker.py`` (ten
  seeded expansions of the initial wood, ``psi``, ``compile_scheme``,
  ``order_wood``, the text round trip and the rewrite check), per wood,
  over ``SYMBOLIC_WOODS`` woods per path.  Every call takes woods that no
  earlier call of its side took, so the timed woods follow a warm-up on
  other woods: the tree table is warm, but not every timed tree is in it,
  as in the benchmark.

Each line prints the medians over the rounds, parent then change, the
median of the rounds' ratios change / parent, in how many rounds the
change was faster, and the medians of the minor page faults of one call
(``ru_minflt`` of ``getrusage``, the call's fresh paths included), parent
then change: memory handed back and taken anew shows there.  A count also
depends on the heap the call finds: on the ``ladder`` row at 32 paths a
call reads about 2300-2550 faults while glibc still holds the top of its
heap, and 3550-3750 once it has trimmed it (about 5 MB, which from the
second round on the round's first timed call does), whichever tree runs.
So the two medians can differ by up to about 1000 from the order of the
calls alone; a change that frees and retakes a chunk's arrays reads
about 9600.  ``--rows`` runs only the rows it names, comma-separated
(every row by default), so a change to one layer is timed on its own rows::

    python3 scripts/ab_timing.py PARENT/src src
    python3 scripts/ab_timing.py PARENT/src src --paths 8 --rounds 4
    python3 scripts/ab_timing.py PARENT/src src --rows symbolic
    python3 scripts/ab_timing.py PARENT/src src --rows "reference,steps exp-euler"
"""

import argparse
import gc
import importlib
import importlib.util
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import blas_threads  # noqa: F401  (before the trees import numpy)

SCHEMES = ("taylor-delta", "exp-euler", "milstein-b0", "full-2nd")
H_FINE, SUBSTEPS = 2.0**-12, (256, 128, 64, 32, 16)
SYMBOLIC_WOODS, SYMBOLIC_DEPTH = 8, 10  # woods per path, expansions per wood
VARIANCE_H, VARIANCE_H_FINE, VARIANCE_MODES = 2.0**-4, 2.0**-17, 8


def load(name: str, src: Path):
    """The ``spde_taylor`` package under ``src``, imported as ``name``."""
    root = src.resolve() / "spde_taylor"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """The workloads of one tree."""

    def __init__(self, name: str, src: Path, paths: int):
        self.name = name
        load(name, src)
        self.engine = importlib.import_module(f"{name}.engine")
        self.harness = importlib.import_module(f"{name}.harness")
        self.trees = importlib.import_module(f"{name}.trees")
        self.terms = importlib.import_module(f"{name}.terms")
        models = importlib.import_module(f"{name}.models")
        self.model = models.heat_multiplicative_model(64, 64)
        self.additive = models.build_model("heat-add", VARIANCE_MODES, VARIANCE_MODES, 0.005)
        self.additive_grid = self.additive.workspace()
        self.zero = models.SpectralState([0.0] * VARIANCE_MODES)
        self.nodrift = self.engine.builtin_scheme("exp-euler-nodrift")
        self.schemes = {s: self.engine.builtin_scheme(s) for s in SCHEMES}
        self.config = self.harness.ExperimentConfig(
            model="heat-mult", t_end=1.0, fine_log2=12, ladder_log2=(4, 5, 6, 7, 8),
            paths=paths, seed=2024, r=0.005, modes=64, noise_modes=64,
        )
        self.paths = paths
        self.woods_taken = 0

    def _path(self, index: int):
        engine = self.engine
        generator = engine.path_generator(2024, index)
        return engine.NoisePath.draw(generator, SUBSTEPS[0], 64, H_FINE)

    def reference(self) -> float:
        engine, model, u0 = self.engine, self.model, self.model.initial
        paths = [self._path(i) for i in range(self.paths)]
        start = time.perf_counter()
        for path in paths:
            engine.reference_solve(u0, SUBSTEPS[0] * H_FINE, path, model, None, SUBSTEPS)
        return (time.perf_counter() - start) / self.paths

    def steps(self, scheme_name: str, whole: bool = False) -> float:
        """The five ``step()`` calls per path, or with ``whole`` the op."""
        engine, model, u0 = self.engine, self.model, self.model.initial
        scheme, spent = self.schemes[scheme_name], 0.0
        for index in range(self.paths):
            start = time.perf_counter()
            path = self._path(index)
            engine.reference_solve(u0, SUBSTEPS[0] * H_FINE, path, model, None, SUBSTEPS)
            if not whole:
                start = time.perf_counter()
            for k in SUBSTEPS:
                engine.step(scheme, u0, k * H_FINE, path.prefix(k), model)
            spent += time.perf_counter() - start
        return spent / self.paths

    def ladder(self) -> float:
        schemes = tuple(self.schemes.values())
        start = time.perf_counter()
        self.harness._ladder_errors(self.config, schemes, self.model)
        return time.perf_counter() - start

    def variance(self) -> float:
        engine, substeps = self.engine, round(VARIANCE_H / VARIANCE_H_FINE)
        start = time.perf_counter()
        for index in range(self.paths):
            path = engine.NoisePath.draw(
                engine.path_generator(2024, index), substeps, VARIANCE_MODES, VARIANCE_H_FINE
            )
            engine.step(self.nodrift, self.zero, VARIANCE_H, path, self.additive,
                        self.additive_grid)
        return (time.perf_counter() - start) / self.paths

    def symbolic(self) -> float:
        trees, terms, engine = self.trees, self.terms, self.engine
        count = SYMBOLIC_WOODS * self.paths
        first, self.woods_taken = self.woods_taken, self.woods_taken + count
        seed = trees.initial_wood()
        start = time.perf_counter()
        for index in range(first, first + count):
            rnd = random.Random(f"2024/{index}")
            wood = seed
            for _ in range(SYMBOLIC_DEPTH):
                wood = trees.expand(wood, rnd.choice(trees.active_nodes(wood)))
            kept = terms.psi(wood)
            engine.compile_scheme(kept, source_wood=wood)
            trees.order_wood(wood)
            text = trees.serialize(wood)
            round_trip = trees.serialize(trees.parse(text))
            at = rnd.choice(trees.active_nodes(wood))
            matches = terms.expansion_matches_rewrite(wood, at, trees.expand(wood, at))
            assert matches and not terms.contains_starred(kept) and round_trip == text
        return (time.perf_counter() - start) / count

    def unload(self) -> None:
        for module in [m for m in sys.modules if m.split(".")[0] == self.name]:
            del sys.modules[module]


def timed(run, side) -> tuple[float, int]:
    """``run(side)`` with the garbage collector off, as ``timeit`` runs (a
    collection's cost depends on every object alive, both trees' included,
    not on the code timed), and the minor page faults the call took."""
    gc.collect()
    gc.disable()
    try:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        seconds = run(side)
        return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    finally:
        gc.enable()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's src directory")
    parser.add_argument("change", type=Path, help="the change's src directory")
    parser.add_argument("--paths", type=int, default=32, help="paths per workload and round")
    parser.add_argument("--rounds", type=int, default=20, help="rounds (alternating order)")
    parser.add_argument("--rows", metavar="NAME[,NAME...]",
                        help="the rows to run, comma-separated (default: all)")
    args = parser.parse_args(argv)
    if args.paths < 1 or args.rounds < 1:
        parser.error("--paths and --rounds must be at least 1")
    workloads = {"reference": lambda side: side.reference()}
    for name in SCHEMES:
        workloads[f"steps {name}"] = lambda side, name=name: side.steps(name)
        workloads[f"op {name}"] = lambda side, name=name: side.steps(name, whole=True)
    workloads["ladder"] = lambda side: side.ladder()
    workloads["variance"] = lambda side: side.variance()
    workloads["symbolic"] = lambda side: side.symbolic()
    if args.rows is not None:
        rows = [name.strip() for name in args.rows.split(",")]
        unknown = [name for name in rows if name not in workloads]
        if unknown:
            parser.error(f"unknown rows {unknown}; available: {list(workloads)}")
        workloads = {name: workloads[name] for name in rows}
    times = {name: ([], []) for name in workloads}
    for round_ in range(args.rounds):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        sides = {}
        for which in order:
            label, src = (("parent", args.parent), ("change", args.change))[which]
            sides[which] = Side(f"{label}_spde_taylor_{round_}", src, args.paths)
        for run in workloads.values():  # warm-up: caches, BLAS
            for which in order:
                run(sides[which])
        for name, run in workloads.items():
            for which in order:
                times[name][which].append(timed(run, sides[which]))
        for side in sides.values():
            side.unload()
    print(f"{'workload':22} {'parent ms':>10} {'change ms':>10} {'ratio':>7}  change won"
          f"  {'parent flt':>10} {'change flt':>10}")
    for name, calls in times.items():
        (parent, parent_faults), (change, change_faults) = (zip(*runs) for runs in calls)
        a, b = statistics.median(parent), statistics.median(change)
        ratio = statistics.median(c / p for p, c in zip(parent, change))
        won = f"{sum(c < p for p, c in zip(parent, change))}/{args.rounds}"
        fa, fb = statistics.median(parent_faults), statistics.median(change_faults)
        print(f"{name:22} {a * 1e3:10.3f} {b * 1e3:10.3f} {ratio:7.3f}  {won:<10}"
              f"  {fa:10.0f} {fb:10.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
