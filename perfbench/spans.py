"""Span tracer for the traced benchmark run.

The tracer wraps public functions at the module boundaries of
``spde_taylor`` from outside the program: it replaces the function object in
every ``spde_taylor`` module that binds it (so ``harness.step`` and
``engine.step`` are both caught) and replaces methods on their class (so
``GridWorkspace.to_grid`` is caught whichever caller holds the workspace).
Nothing is installed until :meth:`Tracer.install` is called, so untraced
runs execute the program unchanged.

Each span is ``(name, start_ns, end_ns, parent_index, tag)`` and is kept in
memory until :meth:`Tracer.write` dumps them.  A layer is the first dotted
component of a span name; its self time is the busy time of its spans minus
the part covered by their wrapped children.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = ("trees", "terms", "models", "engine", "harness")
COARSE_SCHEMES = ("taylor-delta", "exp-euler-nodrift", "exp-euler", "milstein-b0", "full-2nd")


def largest_prime_factor(n: int) -> int:
    best, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            best, n = p, n // p
        p += 1
    return max(best, n) if n > 1 else best


class Tracer:
    """Wrappers for the loaded ``spde_taylor`` package, built once and
    switched on and off with :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.dst_lengths: set[int] = set()
        self.wall_ns = 0
        self.origin_ns: int | None = None
        self._stack: list[int] = []
        self._on_since = 0
        # (owner, attribute, original, replacement)
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        self._on_since = perf_counter_ns()
        if self.origin_ns is None:
            self.origin_ns = self._on_since

    def uninstall(self) -> None:
        self.wall_ns += perf_counter_ns() - self._on_since
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, name, fn, tag=None, count=None):
        spans, stack = self.spans, self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A span is stored as a tuple once it ends: tuples of atoms drop
            # out of the garbage collector's tracking, lists would not.
            index = len(spans)
            parent = stack[-1] if stack else -1
            label = tag(args, kwargs) if tag else None
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[index] = (name, start, perf_counter_ns(), parent, label)
                stack.pop()
                counts[f"{name}:raised:{type(exc).__name__}"] += 1
                raise
            spans[index] = (name, start, perf_counter_ns(), parent, label)
            stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def _function(self, module, attr, name, tag=None, count=None):
        """Wrap ``module.attr`` wherever a ``spde_taylor`` module binds it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self._wrap(name, original, tag, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("spde_taylor"):
                continue
            for key, value in vars(mod).items():
                if value is original:
                    self._patches.append((mod, key, original, wrapper))

    def _method(self, cls, attr, name, tag=None, count=None):
        """Wrap a method (or staticmethod) on its class."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        if isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(name, raw.__func__, tag, count))
        else:
            new = self._wrap(name, raw, tag, count)
        self._patches.append((cls, attr, raw, new))

    def _plan(self) -> None:
        from spde_taylor import engine, harness, models, terms, trees

        scheme_names = {
            engine.builtin_scheme(name).terms: name for name in COARSE_SCHEMES
        }

        def step_tag(args, kwargs):
            scheme = args[0] if args else kwargs.get("scheme")
            return scheme_names.get(getattr(scheme, "terms", None))

        def dst_count(counts, args, kwargs, result):
            p = args[0].grid_points
            rows = math.prod(np.shape(args[1])[:-1])
            counts["dst_rows"] += rows
            counts["dst_bytes"] += 16 * rows * p
            self.dst_lengths.add(p + 1)

        def noise_count(counts, args, kwargs, result):
            counts["noise_bytes"] += result.increments.nbytes

        def reference_count(counts, args, kwargs, result):
            t_end = args[1] if len(args) > 1 else kwargs["t_end"]
            path = args[2] if len(args) > 2 else kwargs["path"]
            counts["reference_substeps"] += int(round(t_end / path.h_fine))

        def convergence_count(counts, args, kwargs, result):
            counts["regression_rows"] += result.regression_rows
            counts["ladder_rows"] += len(result.rows)

        self._function(trees, "active_nodes", "trees.active_nodes")
        self._function(trees, "expand", "trees.expand")
        self._function(trees, "order_wood", "trees.order_wood")
        self._function(trees, "serialize", "trees.serialize")
        self._function(trees, "parse", "trees.parse")
        self._function(terms, "psi", "terms.psi")
        self._function(terms, "expansion_matches_rewrite", "terms.rewrite_check")
        self._function(models, "build_model", "models.build_model")
        self._method(models.GridWorkspace, "to_grid", "models.dst", count=dst_count)
        self._method(models.GridWorkspace, "to_coeffs", "models.dst", count=dst_count)
        for cls in (models.MultiplicationDiffusion, models.DiagonalDiffusion):
            self._method(cls, "rows_against_noise", "models.diffusion")
        self._function(engine, "path_generator", "engine.path_generator")
        self._method(engine.NoisePath, "draw", "engine.noise_draw", count=noise_count)
        self._function(engine, "reference_solve", "engine.reference", count=reference_count)
        self._function(engine, "step", "engine.step", tag=step_tag)
        self._function(engine, "compile_scheme", "engine.compile")
        self._function(engine, "builtin_scheme", "engine.builtin_scheme")
        self._function(harness, "run_convergence", "harness.run_convergence",
                      count=convergence_count)
        self._function(harness, "render_json", "harness.report")
        self._function(harness, "render_csv", "harness.report")

    # -- results ------------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the time the wrappers were installed."""
        spans, wall_ns = self.spans, self.wall_ns
        covered = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        busy: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        self_ns: dict[str, int] = defaultdict(int)
        layer_self: dict[str, int] = defaultdict(int)
        coarse: dict[str, int] = defaultdict(int)
        for index, (name, start, end, parent, tag) in enumerate(spans):
            duration = end - start
            own = duration - covered[index]
            busy[name] += duration
            calls[name] += 1
            self_ns[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if name == "engine.step" and (parent < 0 or spans[parent][0] != "engine.reference"):
                coarse[tag] += duration
        c = self.counts
        s = 1e-9

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        out = {
            "trees.expand_calls": (calls["trees.expand"], "count"),
            "trees.expand_s": (busy["trees.expand"] * s, "s"),
            "trees.order_wood_s": (busy["trees.order_wood"] * s, "s"),
            "trees.text_s": ((busy["trees.serialize"] + busy["trees.parse"]) * s, "s"),
            "terms.psi_calls": (calls["terms.psi"], "count"),
            "terms.psi_s": (busy["terms.psi"] * s, "s"),
            "terms.rewrite_check_calls": (calls["terms.rewrite_check"], "count"),
            "terms.rewrite_check_s": (busy["terms.rewrite_check"] * s, "s"),
            "models.dst_calls": (calls["models.dst"], "count"),
            "models.dst_rows": (c["dst_rows"], "count"),
            "models.dst_s": (busy["models.dst"] * s, "s"),
            "models.dst_us_per_row": (per(busy["models.dst"], c["dst_rows"], 1e-3), "us"),
            "models.dst_bytes_computed": (c["dst_bytes"], "B"),
            "models.dst_len_max_prime": (
                max(map(largest_prime_factor, self.dst_lengths), default=0), "count"),
            "models.diffusion_self_s": (self_ns["models.diffusion"] * s, "s"),
            "engine.noise_draw_calls": (calls["engine.noise_draw"], "count"),
            "engine.noise_draw_s": (busy["engine.noise_draw"] * s, "s"),
            "engine.noise_bytes": (c["noise_bytes"], "B"),
            "engine.reference_calls": (calls["engine.reference"], "count"),
            "engine.reference_substeps": (c["reference_substeps"], "count"),
            "engine.reference_self_s": (self_ns["engine.reference"] * s, "s"),
            "engine.reference_us_per_substep": (
                per(busy["engine.reference"], c["reference_substeps"], 1e-3), "us"),
            "engine.step_calls": (calls["engine.step"], "count"),
            "engine.step_self_s": (self_ns["engine.step"] * s, "s"),
        }
        for scheme in COARSE_SCHEMES:
            out[f"engine.coarse_s.{scheme}"] = (coarse[scheme] * s, "s")
        out["engine.compile_s"] = (busy["engine.compile"] * s, "s")
        # Steps that raised NonfiniteValueError: run_convergence excludes
        # those paths, the benchmark's own ops count them as failed.
        out["engine.nonfinite_excluded"] = (
            c["engine.step:raised:NonfiniteValueError"], "count")
        out["harness.report_s"] = (busy["harness.report"] * s, "s")
        out["harness.regression_rows_ratio"] = (
            per(c["regression_rows"], c["ladder_rows"]), "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer] * s, "s")
        attributed = sum(layer_self[layer] for layer in LAYERS)
        out["trace.wall_s"] = (wall_ns * s, "s")
        out["trace.unattributed_s"] = ((wall_ns - attributed) * s, "s")
        out["trace.spans"] = (len(spans), "count")
        return out

    def write(self, path: Path) -> None:
        """Dump spans as JSON lines, times in ns from the first install."""
        origin_ns = self.origin_ns or 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "tag"],
                                  "missing": self.missing}) + "\n")
            for name, start, end, parent, tag in self.spans:
                out.write(json.dumps([name, start - origin_ns, end - origin_ns, parent, tag]) + "\n")
