"""Compilation of computable term sums into executable one-step maps.

A compiled scheme is an ordered list of star-free terms.  Evaluating a step
of size h over a fine mesh of substeps r_j = j * h_fine works term by term:

* ``I^0_0``            -> (e^{Ah} - I) u0, exact per mode.
* ``I^0_1``            -> A^{-1}(e^{Ah} - I) F(u0), exact per mode.
* ``I^0_2``, ``I^i_2`` -> left-point substep sums with the exact semigroup
                          weight e^{-lambda_i (h - r_j)} applied per mode to
                          each substep contribution.
* ``I^i_1``            -> left-point Riemann sums with the same weights.

Arguments of multilinear terms are evaluated as trajectories on the same
mesh (value at each left point), so iterated stochastic integrals reuse the
increments that drive the outer integral.

A scheme is lowered once into nodes in dependency order, one per distinct
term or subterm, so a shared subterm (the I^0_0 inside a Milstein term and
the plan's own I^0_0) is evaluated once per step.  Only a node whose
trajectory a later node reads builds its per-substep rows; every other
diffusion node asks the model for the end-weighted sum alone.  The
per-mode factors depend only on (eigenvalues, h, h_fine); they are built
once per process for each such triple and shared read-only.

Binding a plan to a model and a step h turns each node into a step
function that holds everything the node reads: its rows of those factors,
its k! scale, and the model operator bound to its order.  A node whose
operator the model binds to None, identically zero (the zero drift's
drift flow), is dropped then and costs nothing per step.  A step then runs
the nodes' arithmetic and nothing else: no dispatch on the node kind, no
argument checks and no cache lookups.  For the reference at h = h_fine
that is, per substep, the two matrix products of the diffusion, one
pointwise and two per-mode products, and the sum of two terms.

One stepping loop runs every evaluation, for one path or for a batch of
paths, one row each: a plan bound once advances the states through
consecutive h-long row blocks of their noise windows, prepared once (for
the multiplication model: moved to the grid), and tests the end states
for inf and nan once per run.  :func:`step` is that loop for one step of
one path, and the fine-mesh reference :func:`reference_solve` is the loop
over the exponential Euler plan at h = h_fine, which makes
scheme-versus-reference comparisons on shared noise bit-consistent.  A
drawn :class:`NoisePath` is prepared once, and its prefixes read the rows
of that one prepared window, so ``step()`` on a prefix has the bytes of
the order study (``harness``), which runs the loop on chunks of paths
over their whole windows.

Monte-Carlo streams come from a counter-based generator: path p draws from
``Philox(key=seed, counter=p << 128)``, so any path's noise can be
regenerated independently of evaluation order or threading.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .models import GridWorkspace, ModelSpec, SpectralState, bind_end_sum
from .terms import (
    I0,
    TermExpr,
    contains_starred,
    psi,
    render_compact,
    summands,
)
from .trees import NodeLabel, SWood, expand, initial_wood

PATH_COUNTER_STRIDE = 1 << 128


class EngineError(Exception):
    pass


class NotImplementableError(EngineError):
    """The term sum still contains a starred operator."""


class MeshMismatchError(EngineError):
    """Step size and fine mesh do not align."""


class NonfiniteValueError(EngineError):
    """A term evaluated to NaN or infinity; carries the term rendering."""

    def __init__(self, term: str):
        super().__init__(f"non-finite value while evaluating {term}")
        self.term = term


def path_generator(seed: int, path_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one Monte-Carlo path."""
    bits = np.random.Philox(key=seed, counter=path_index * PATH_COUNTER_STRIDE)
    return np.random.Generator(bits)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Window:
    """A drawn path's increments and their prepared form per diffusion
    operator, computed on first use; shared by the path and its prefixes."""

    __slots__ = ("increments", "prepared")

    def __init__(self, increments: np.ndarray):
        self.increments = increments
        self.prepared: dict[object, np.ndarray] = {}


@dataclass(frozen=True)
class NoisePath:
    """Gaussian increments of the driving cylindrical process on a fine mesh.

    Row j holds the M per-mode increments over [j*h_fine, (j+1)*h_fine];
    entries are i.i.d. N(0, h_fine).  The increments are read-only: a
    writeable array is copied, one that is already read-only (such as the
    fresh array of :meth:`draw` or the row view of :meth:`prefix`) is taken
    over as it is.

    A path built from an array is its own root window; :meth:`prefix`
    shares it.  The root's increments are prepared for a diffusion
    operator once, on first use, and every prefix reads the first rows of
    that prepared window.  So a prefix stepped before or after the
    reference of the whole path gets the same bytes, and those of the
    order study, which prepares whole windows too.

    The first use prepares the whole drawn window, however few rows it
    reads, and the path keeps that form as long as it lives.  For the
    multiplication model it has one column per grid point, about
    4*max(N, M) of them against M for the increments: a 2^17-substep path
    at N = M = 64 holds about 267 MB after one step on ``prefix(1)``.
    Draw a path only as long as the horizon it is stepped over.
    """

    increments: np.ndarray
    h_fine: float
    _window: _Window = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.increments, dtype=float)
        if arr.ndim != 2:
            raise ValueError("increments must be a (substeps, modes) array")
        if self.h_fine <= 0.0:
            raise ValueError("h_fine must be positive")
        if arr.flags.writeable:
            arr = _frozen(arr.copy())
        object.__setattr__(self, "increments", arr)
        object.__setattr__(self, "_window", _Window(arr))

    @property
    def substeps(self) -> int:
        return self.increments.shape[0]

    @property
    def noise_modes(self) -> int:
        return self.increments.shape[1]

    @staticmethod
    def draw(
        rng: np.random.Generator, substeps: int, noise_modes: int, h_fine: float
    ) -> "NoisePath":
        increments = rng.standard_normal((substeps, noise_modes))
        increments *= np.sqrt(h_fine)
        return NoisePath(increments=_frozen(increments), h_fine=h_fine)

    def prefix(self, substeps: int) -> "NoisePath":
        if substeps > self.substeps:
            raise MeshMismatchError(
                f"requested {substeps} substeps from a path of {self.substeps}"
            )
        out = NoisePath(increments=self.increments[:substeps], h_fine=self.h_fine)
        object.__setattr__(out, "_window", self._window)
        return out

    def _prepared_noise(self, plan: "BoundPlan", substeps: int) -> np.ndarray | None:
        """The first ``substeps`` rows of the root window's noise prepared
        by ``plan`` (see :meth:`BoundPlan.prepare_noise`), a view; None for
        plans that never apply the diffusion."""
        if not plan.scheme.required_orders.diffusion:
            return None
        window, diffusion = self._window, plan.model.diffusion
        noise = window.prepared.get(diffusion)
        if noise is None:
            noise = _frozen(plan.prepare_noise(window.increments))
            window.prepared[diffusion] = noise
        return noise[:substeps]


class RequiredOrders(NamedTuple):
    """Orders of the drift (F) and diffusion (B) derivatives a plan applies."""

    drift: frozenset[int]
    diffusion: frozenset[int]


@dataclass(frozen=True)
class CompiledScheme:
    terms: tuple[TermExpr, ...]
    source_wood: SWood | None = None

    def describe(self) -> str:
        return " + ".join(render_compact(t) for t in self.terms) or "0"

    @cached_property
    def lowered(self) -> tuple[tuple[_Node, ...], tuple[int, ...], tuple[str, ...]]:
        """The terms lowered once per scheme (see :func:`_lower`)."""
        return _lower(self.terms)

    @cached_property
    def required_orders(self) -> RequiredOrders:
        """The derivative orders of the lowered nodes: ``I^0_1`` and
        ``I^0_2`` apply the order-0 maps, ``I^i_j`` the order-i ones."""
        nodes = self.lowered[0]
        return RequiredOrders(
            drift=frozenset(o for kind, o, _, _ in nodes if kind in (_DRIFT_FLOW, _DRIFT)),
            diffusion=frozenset(o for kind, o, _, _ in nodes if kind is _DIFFUSION),
        )


@dataclass(frozen=True)
class StepResult:
    state: SpectralState


def compile_scheme(expr: TermExpr, source_wood: SWood | None = None) -> CompiledScheme:
    """Turn a star-free term sum into an executable plan.

    Terms are kept in canonical order.
    """
    if contains_starred(expr):
        offending = next(
            render_compact(t) for t in summands(expr) if contains_starred(t)
        )
        raise NotImplementableError(
            f"term {offending} depends on the unknown solution path"
        )
    return CompiledScheme(terms=summands(expr), source_wood=source_wood)


def _builtin_woods() -> dict[str, SWood]:
    w0 = initial_wood()
    w1 = expand(w0, (3, 1))
    w2 = expand(w1, (2, 1))
    w3 = expand(w2, (4, 1))
    w4 = expand(w3, (6, 1))
    w5 = expand(w4, (6, 2))
    return {
        "taylor-delta": w0,
        "exp-euler-nodrift": w1,
        "exp-euler": w2,
        "milstein-b0": w3,
        "full-2nd": w5,
    }


BUILTIN_WOODS = _builtin_woods()


def builtin_scheme(name: str) -> CompiledScheme:
    """Schemes of the worked expansion sequence, by short name."""
    try:
        wood = BUILTIN_WOODS[name]
    except KeyError:
        raise EngineError(
            f"unknown scheme {name!r}; available: {sorted(BUILTIN_WOODS)}"
        ) from None
    return compile_scheme(psi(wood), source_wood=wood)


def _whole_count(span: float, unit: float, message: str) -> int:
    """span / unit, which must be a positive whole number; else the error
    is ``message`` formatted with span and unit."""
    ratio = span / unit
    count = int(round(ratio))
    if count < 1 or abs(ratio - count) > 1e-9 * max(1.0, ratio):
        raise MeshMismatchError(message.format(span, unit))
    return count


def _check_shapes(u0: SpectralState, path: NoisePath, model: ModelSpec) -> None:
    if u0.modes != model.modes:
        raise EngineError(f"state has {u0.modes} modes, model {model.modes}")
    if path.noise_modes != model.noise_modes:
        raise EngineError(
            f"path drives {path.noise_modes} noise modes, model {model.noise_modes}"
        )


# Node kinds of a lowered plan: the semigroup flow I^0_0, the drift flow
# I^0_1, and the left-point substep sums I^i_2 (i >= 0) and I^i_1 (i >= 1).
_FLOW, _DRIFT_FLOW, _DIFFUSION, _DRIFT = "flow", "drift flow", "diffusion", "drift"

#: (kind, derivative order, argument slots, trajectory needed)
_Node = tuple[str, int, tuple[int, ...], bool]


def _lower(
    terms: tuple[TermExpr, ...],
) -> tuple[tuple[_Node, ...], tuple[int, ...], tuple[str, ...]]:
    """The distinct terms and subterms of ``terms`` as nodes in dependency
    order, the slot and the name of each of ``terms``.  A node's argument
    slots are all earlier; its trajectory is needed when a later node takes
    it as an argument.  The walk keeps its own stack, so any depth works."""
    slots: dict[TermExpr, int] = {}
    specs: list[tuple[str, int, tuple[int, ...]]] = []
    stack = list(reversed(terms))
    while stack:
        term = stack[-1]
        if term in slots:
            stack.pop()
            continue
        order, args = (0, ()) if isinstance(term, I0) else (term.order, term.args)
        pending = [a for a in args if a not in slots]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        if term.j is NodeLabel.ZERO:
            kind = _FLOW
        elif term.j is NodeLabel.ONE:
            kind = _DRIFT_FLOW if order == 0 else _DRIFT
        elif term.j is NodeLabel.TWO:
            kind = _DIFFUSION
        else:
            raise NotImplementableError(f"cannot evaluate starred {term.j}")
        slots[term] = len(specs)
        specs.append((kind, order, tuple(slots[a] for a in args)))
    term_slots = tuple(slots[t] for t in terms)
    read = {a for _, _, args in specs for a in args}
    nodes = tuple((*spec, slot in read) for slot, spec in enumerate(specs))
    return nodes, term_slots, tuple(render_compact(t) for t in terms)


class _MeshTables:
    """The per-mode factors of a step h on a mesh of h_fine, read-only."""

    def __init__(self, lam: np.ndarray, h: float, h_fine: float, substeps: int):
        self.lam = lam
        self.times = _frozen(np.arange(substeps) * h_fine)
        self.decay_fine = _frozen(np.exp(-lam * h_fine))
        # end_weights[i, j] = exp(-lambda_i (h - r_j))
        self.end_weights = _frozen(np.exp(-lam[:, None] * (h - self.times[None, :])))
        self.flow = _frozen(np.expm1(-lam * h))
        self.drift_flow = _frozen(-self.flow / lam)

    # Trajectory factors; only plans with an inner I^0_0 or I^0_1 need them.
    @cached_property
    def flow_at(self) -> np.ndarray:
        """e^{-lambda_i r_j} - 1, indexed [j, i]."""
        return _frozen(np.expm1(-np.outer(self.times, self.lam)))

    @cached_property
    def drift_flow_at(self) -> np.ndarray:
        """(1 - e^{-lambda_i r_j}) / lambda_i, indexed [j, i]."""
        return _frozen(-self.flow_at / self.lam[None, :])


# A ladder study binds about six (h, h_fine) pairs per model; the bound keeps
# a sweep over sizes from holding every table it has built.
@lru_cache(maxsize=16)
def _mesh_tables(eigenvalues: bytes, h: float, h_fine: float, substeps: int) -> _MeshTables:
    """The shared tables for the eigenvalues whose float64 bytes are given."""
    return _MeshTables(np.frombuffer(eigenvalues), h, h_fine, substeps)


class BoundPlan:
    """A compiled scheme bound to a model and a step h on a mesh of h_fine.

    Binding lowers each of the scheme's nodes once into a step that holds
    everything the node reads: its rows of the shared mesh tables of
    (eigenvalues, h, h_fine), its k! scale and the model operator bound to
    the node's order; a node that vanishes identically is dropped.
    :meth:`advance` runs the steps in turn from the start state of one path,
    (N,), or of a batch of paths, (paths, N), on their windows of noise
    prepared by :meth:`prepare_noise`.  The stepping loop :func:`_run`
    advances them through consecutive steps; a coarse run of exponential
    Euler at h_fine equals the reference by construction.
    """

    def __init__(self, scheme: CompiledScheme, model: ModelSpec, h: float, h_fine: float):
        self.scheme = scheme
        self.model = model
        self.h_fine = h_fine
        self.substeps = _whole_count(
            h, h_fine, "step {} is not a whole number of substeps of {}"
        )
        nodes, self.term_slots, self.names = scheme.lowered
        self.tables = _mesh_tables(model.eigenvalues.tobytes(), h, h_fine, self.substeps)
        self.steps = tuple(self._bind(*node) for node in nodes)

    def _bind(self, kind: str, order: int, arg_slots: tuple[int, ...], trajectory: bool):
        """The node as a step ``(u0, noise, trajectories) -> (value,
        trajectory)``: its end value and, when a later node reads it, its
        trajectory, else None.  ``trajectories`` holds those of the earlier
        nodes by slot.  A node whose operator vanishes identically, as the
        model's binders say, is None when no later node reads it, else a
        step whose value is None and whose trajectory is zero.

        Sum nodes reduce their per-substep contributions with the end
        weights; a diffusion node whose trajectory no later node reads
        takes the reduced sum from the model, without the rows.  A node's
        trajectory holds its values at the left points r_0..r_{S-1}, Ito
        style: the row at r_j has the contributions strictly before r_j."""
        # The steps hold no reference to the plan, so a plan is freed as soon
        # as its last user drops it, not by the cycle collector.
        tables, model = self.tables, self.model
        if kind is _FLOW:
            flow = tables.flow
            if not trajectory:
                return lambda u0, noise, paths: (flow * u0, None)
            flow_at = tables.flow_at
            return lambda u0, noise, paths: (flow * u0, flow_at * u0[..., None, :])
        zeros = partial(np.zeros, (self.substeps, model.modes))
        vanishing = (lambda u0, noise, paths: (None, zeros())) if trajectory else None
        diffusion = model.diffusion
        if kind is _DIFFUSION and not trajectory:
            total = _over_factorial(order, diffusion.bind_sum(order, tables.end_weights))
            if total is None:
                return None
            return lambda u0, noise, paths: (total(u0, [paths[a] for a in arg_slots], noise), None)
        if kind is _DRIFT_FLOW:
            drift = model.drift.bind_value()
            if drift is None:
                return vanishing
            drift_flow = tables.drift_flow
            if not trajectory:
                return lambda u0, noise, paths: (drift_flow * drift(u0), None)
            drift_flow_at = tables.drift_flow_at

            def drift_flow_step(u0, noise, paths):
                base = drift(u0)
                return drift_flow * base, drift_flow_at * base[..., None, :]

            return drift_flow_step
        if kind is _DIFFUSION:
            rows_of = _over_factorial(order, diffusion.bind_rows(order))
        else:
            derivative = model.drift.bind_rows(order)
            scale = self.h_fine / math.factorial(order)
            rows_of = None if derivative is None else (
                lambda u0, args, noise: derivative(u0, args) * scale
            )
        if rows_of is None:
            return vanishing
        end_sum, decay = bind_end_sum(tables.end_weights), tables.decay_fine

        def sum_step(u0, noise, paths):
            rows = rows_of(u0, [paths[a] for a in arg_slots], noise)
            return end_sum(rows), _running_sum(rows, decay) if trajectory else None

        return sum_step

    def prepare_noise(self, increments: np.ndarray) -> np.ndarray | None:
        """The increments, (substeps, M) or (paths, substeps, M), in the
        form the diffusion consumes, one row per substep (for the
        multiplication model: grid values); None for plans that never apply
        the diffusion."""
        if not self.scheme.required_orders.diffusion:
            return None
        # Overflow shows up as a non-finite state in the stepping loop.
        with np.errstate(over="ignore", invalid="ignore"):
            return self.model.diffusion.prepare_noise(increments)

    def advance(
        self, u0: np.ndarray, noise: np.ndarray | None
    ) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """u0 plus the sum of the plan's terms over the window whose prepared
        noise is ``noise``, and the end value of every node by slot, None
        where it vanishes (see :meth:`nonfinite`).  ``u0`` is one state,
        (N,), or one per path, (paths, N), and ``noise`` the window of each,
        (substeps, ·) or (paths, substeps, ·)."""
        values: list = []
        trajectories: list = []
        for run in self.steps:
            value, path = (None, None) if run is None else run(u0, noise, trajectories)
            values.append(value)
            trajectories.append(path)
        total = u0
        for slot in self.term_slots:
            if values[slot] is not None:
                total = total + values[slot]
        return total, values

    def nonfinite(self, values: list[np.ndarray | None], row: int) -> NonfiniteValueError:
        """The error for the path in ``row`` of a batch (row 0 of a single
        path) whose state is not finite: names its first non-finite term,
        from the node values that :meth:`advance` returns (``None`` for a
        term that vanishes)."""
        for name, slot in zip(self.names, self.term_slots):
            value = values[slot]
            if value is not None and not np.isfinite(np.atleast_2d(value)[row]).all():
                return NonfiniteValueError(name)
        return NonfiniteValueError("sum of plan terms")


def _running_sum(rows: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """Trajectory of a sum node: the sum of the rows before each left point,
    decayed by ``decay`` per substep, per path."""
    out = np.zeros(rows.shape)
    running = out[..., 0, :]
    by_substep = zip(rows.swapaxes(-2, 0)[:-1], out.swapaxes(-2, 0)[1:])
    for row, after in by_substep:
        running = np.multiply(decay, running + row, out=after)
    return out


def _over_factorial(order: int, bound):
    """A bound diffusion function divided by ``order``! from order 2 up."""
    if bound is None or order < 2:
        return bound
    divisor = math.factorial(order)
    return lambda *args: bound(*args) / divisor


def _windows(plan: BoundPlan, noise: np.ndarray | None, steps: int):
    """The prepared noise of each of ``steps`` consecutive steps: view n of
    the leading axis is step n's window, with no copies."""
    if noise is None:
        return itertools.repeat(None, steps)
    blocks = noise[..., : steps * plan.substeps, :]
    blocks = blocks.reshape(blocks.shape[:-2] + (steps, plan.substeps, blocks.shape[-1]))
    return blocks.swapaxes(-3, 0)


def _run(
    plan: BoundPlan,
    states: np.ndarray,
    noise: np.ndarray | None,
    steps: int,
    record_steps: tuple[int, ...] = (),
) -> tuple[np.ndarray, dict[int, np.ndarray], dict[int, NonfiniteValueError]]:
    """The stepping loop: advances the states through ``steps`` consecutive
    h-long row blocks of ``noise``, their prepared windows, or None for
    plans without diffusion.  The shapes are those of
    :meth:`BoundPlan.advance`: a single path runs unbatched, which spares
    it the cost of broadcasting against the (N,) mesh tables.

    Returns the end states, the states after each step count in
    ``record_steps``, and, keyed by row (0 for a single path), the error
    naming the first non-finite term of each path whose state went
    non-finite.  Such a path runs on, non-finite; the others never see it.

    The loop runs only the plan's arithmetic and tests the end states for
    inf and nan once.  That test is exact: every step returns u0 plus its
    terms, and IEEE addition never turns an inf or a nan finite, so an
    entry that goes non-finite at some step is non-finite at the end.
    Only when the end states are not all finite are the rows that failed
    replayed step by step, node by node, to name each one's first
    non-finite term at its first non-finite step.
    """
    start = states
    recorded = {0: states} if 0 in record_steps else {}
    # A blow-up surfaces in ``failed``, not as warnings from the array
    # operations that produced the inf or nan.
    with np.errstate(over="ignore", invalid="ignore"):
        for n, window in enumerate(_windows(plan, noise, steps), 1):
            states = plan.advance(states, window)[0]
            if n in record_steps:
                recorded[n] = states
        failed = {}
        if not np.isfinite(states).all():
            failed = _first_failures(plan, start, noise, states, steps)
    return states, recorded, failed


def _first_failures(
    plan: BoundPlan, start: np.ndarray, noise: np.ndarray | None, end: np.ndarray, steps: int
) -> dict[int, NonfiniteValueError]:
    """Keyed by row, the error naming the first non-finite term of each row
    of a run's ``end`` states that is not finite, at its first non-finite
    step.  Replays the run of those rows alone from ``start``: a batch's
    products are stacks of one-path products, so each row replays with the
    bytes it ran with."""
    rows = (0,)
    if end.ndim > 1:
        rows = np.flatnonzero(~np.isfinite(end).all(axis=-1))
        start, noise = start[rows], None if noise is None else noise[rows]
    failed: dict[int, NonfiniteValueError] = {}
    for window in _windows(plan, noise, steps):
        start, values = plan.advance(start, window)
        for row in np.flatnonzero(~np.isfinite(start).all(axis=-1)):
            failed.setdefault(int(rows[row]), plan.nonfinite(values, row))
    return failed


def _solve(
    scheme: CompiledScheme,
    u0: SpectralState,
    t_end: float,
    h: float,
    path: NoisePath,
    model: ModelSpec,
    workspace: GridWorkspace | None,
    record_steps: tuple[int, ...] = (),
) -> tuple[np.ndarray, dict[int, SpectralState]]:
    """One path through :func:`_run`, behind :func:`step` and
    :func:`reference_solve`.

    Binds the plan once at step h, reads the noise of the window [0, t_end]
    from the path's prepared root window (see :class:`NoisePath`), and runs
    t_end / h steps.  Returns the end
    coefficients and snapshots after the step counts in ``record_steps``,
    each of which must lie in 0..t_end / h.  A step whose result is not
    finite raises :class:`NonfiniteValueError` naming its first non-finite
    term.  ``workspace`` is None or ``model.workspace()``, the grid the
    model's diffusion owns; any other grid is an :class:`EngineError`.
    """
    _check_shapes(u0, path, model)
    if workspace is not None and workspace != model.workspace():
        raise EngineError(
            f"the model computes on its own grid of {model.workspace().grid_points} "
            f"points, not on {workspace.grid_points}"
        )
    plan = BoundPlan(scheme, model, h, path.h_fine)
    steps = _whole_count(t_end, h, "t_end {} is not a whole number of steps of h = {}")
    substeps = steps * plan.substeps
    if substeps > path.substeps:
        raise MeshMismatchError(
            f"[0, {t_end}] needs {substeps} substeps, path provides {path.substeps}"
        )
    outside = sorted(n for n in record_steps if not 0 <= n <= steps)
    if outside:
        raise MeshMismatchError(
            f"cannot record after {outside} steps: [0, {t_end}] has {steps}"
        )
    noise = path._prepared_noise(plan, substeps)
    state, recorded, failed = _run(plan, u0.coeffs, noise, steps, record_steps)
    if failed:
        raise failed[0]
    return state, {n: SpectralState(s) for n, s in recorded.items()}


def step(
    scheme: CompiledScheme,
    u0: SpectralState,
    h: float,
    path: NoisePath,
    model: ModelSpec,
    workspace: GridWorkspace | None = None,
) -> StepResult:
    """The one-step approximation at time h from u0 on the first h / h_fine
    increments of the path, as the result's state."""
    state, _ = _solve(scheme, u0, h, h, path, model, workspace)
    return StepResult(state=SpectralState(state))


_REFERENCE_SCHEME = builtin_scheme("exp-euler")


def reference_solve(
    u0: SpectralState,
    t_end: float,
    path: NoisePath,
    model: ModelSpec,
    workspace: GridWorkspace | None = None,
    record_substeps: tuple[int, ...] = (),
) -> tuple[SpectralState, dict[int, SpectralState]]:
    """Fine-mesh surrogate for the exact solution.

    Iterates the exponential one-step scheme (semigroup flow, frozen-drift
    convolution, frozen-diffusion stochastic convolution) over every fine
    substep of [0, t_end]: the stepping loop with that scheme at
    h = h_fine.  A coarse run of the scheme at h_fine is therefore bitwise
    identical to this reference.  ``record_substeps`` requests snapshots
    after the given substep counts; a count outside 0..t_end / h_fine
    raises :class:`MeshMismatchError`.
    """
    state, recorded = _solve(
        _REFERENCE_SCHEME, u0, t_end, path.h_fine, path, model, workspace,
        record_substeps,
    )
    return SpectralState(state), recorded
