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
the plan's own I^0_0) is evaluated once per step.  The per-mode factors
depend only on (eigenvalues, h, h_fine); they are built once per process
for each such triple and shared read-only.

One stepping loop runs every evaluation: it binds the plan once, prepares
the noise of the whole window [0, t_end] once (for the multiplication model:
moves it to the grid) and advances the state through consecutive h-long row
blocks of it.  :func:`step` is that loop for a single step,
:func:`multi_step_solve` for t_end / h steps, and the fine-mesh reference
:func:`reference_solve` is the loop over the exponential Euler plan at
h = h_fine, which makes scheme-versus-reference comparisons on shared noise
bit-consistent.

Monte-Carlo streams come from a counter-based generator: path p draws from
``Philox(key=seed, counter=p << 128)``, so any path's noise can be
regenerated independently of evaluation order or threading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .models import GridWorkspace, ModelSpec, SpectralState
from .terms import (
    I0,
    TermExpr,
    contains_starred,
    psi,
    render_compact,
    required_derivative_orders,
    summands,
)
from .trees import NodeLabel, SWood, expand, initial_wood

PATH_COUNTER_STRIDE = 1 << 128


class EngineError(Exception):
    pass


class NotImplementableError(EngineError):
    """The term sum still contains a starred operator."""


class UnsupportedDerivativeOrderError(EngineError):
    """The model does not provide a derivative the plan requires."""


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


@dataclass(frozen=True)
class NoisePath:
    """Gaussian increments of the driving cylindrical process on a fine mesh.

    Row j holds the M per-mode increments over [j*h_fine, (j+1)*h_fine];
    entries are i.i.d. N(0, h_fine).  The increments are read-only: a
    writeable array is copied, one that is already read-only (such as the
    fresh array of :meth:`draw` or the row view of :meth:`prefix`) is taken
    over as it is.
    """

    increments: np.ndarray
    h_fine: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.increments, dtype=float)
        if arr.ndim != 2:
            raise ValueError("increments must be a (substeps, modes) array")
        if self.h_fine <= 0.0:
            raise ValueError("h_fine must be positive")
        if arr.flags.writeable:
            arr = _frozen(arr.copy())
        object.__setattr__(self, "increments", arr)

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
        return NoisePath(increments=self.increments[:substeps], h_fine=self.h_fine)

    def coarsened(self, factor: int) -> "NoisePath":
        """Sum consecutive increments; the same Brownian path on a mesh
        ``factor`` times coarser."""
        if self.substeps % factor:
            raise MeshMismatchError(
                f"{self.substeps} substeps do not group into blocks of {factor}"
            )
        blocks = self.increments.reshape(self.substeps // factor, factor, -1)
        return NoisePath(
            increments=_frozen(blocks.sum(axis=1)), h_fine=self.h_fine * factor
        )


@dataclass(frozen=True)
class CompiledScheme:
    terms: tuple[TermExpr, ...]
    required_orders: dict
    source_wood: SWood | None = None

    def describe(self) -> str:
        return " + ".join(render_compact(t) for t in self.terms) or "0"

    @cached_property
    def lowered(self) -> tuple[tuple[_Node, ...], tuple[int, ...], tuple[str, ...]]:
        """The terms lowered once per scheme (see :func:`_lower`)."""
        return _lower(self.terms)


@dataclass(frozen=True)
class StepResult:
    state: SpectralState
    diagnostics: dict[str, float]


def _check_model_orders(required: dict, model: ModelSpec) -> None:
    max_order = getattr(model.diffusion, "max_order", None)
    if max_order is not None:
        for order in sorted(required["B"]):
            if order > max_order:
                raise UnsupportedDerivativeOrderError(
                    f"model {model.name!r} provides diffusion derivatives up to "
                    f"order {max_order}, plan needs order {order}"
                )


def compile_scheme(expr: TermExpr, source_wood: SWood | None = None) -> CompiledScheme:
    """Turn a star-free term sum into an executable plan.

    Terms are kept in canonical order.  A model's derivative support is
    checked when the plan is bound to it (:class:`BoundPlan`).
    """
    if contains_starred(expr):
        offending = next(
            render_compact(t) for t in summands(expr) if contains_starred(t)
        )
        raise NotImplementableError(
            f"term {offending} depends on the unknown solution path"
        )
    return CompiledScheme(
        terms=summands(expr),
        required_orders=required_derivative_orders(expr),
        source_wood=source_wood,
    )


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
    """span / unit, which must be a positive whole number."""
    ratio = span / unit
    count = int(round(ratio))
    if count < 1 or abs(ratio - count) > 1e-9 * max(1.0, ratio):
        raise MeshMismatchError(message)
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
    it as an argument."""
    slots: dict[TermExpr, int] = {}
    specs: list[tuple[str, int, tuple[int, ...]]] = []

    def visit(term: TermExpr) -> int:
        if term not in slots:
            order, args = (0, ()) if isinstance(term, I0) else (term.order, term.args)
            arg_slots = tuple(visit(a) for a in args)
            if term.j is NodeLabel.ZERO:
                kind = _FLOW
            elif term.j is NodeLabel.ONE:
                kind = _DRIFT_FLOW if order == 0 else _DRIFT
            elif term.j is NodeLabel.TWO:
                kind = _DIFFUSION
            else:
                raise NotImplementableError(f"cannot evaluate starred {term.j}")
            slots[term] = len(specs)
            specs.append((kind, order, arg_slots))
        return slots[term]

    term_slots = tuple(visit(t) for t in terms)
    read = {a for _, _, args in specs for a in args}
    nodes = tuple((*spec, slot in read) for slot, spec in enumerate(specs))
    return nodes, term_slots, tuple(render_compact(t) for t in terms)


class _MeshTables:
    """The per-mode factors of a step h on a mesh of h_fine, read-only."""

    def __init__(self, lam: np.ndarray, h: float, h_fine: float, substeps: int):
        self.lam = lam
        self.times = _frozen(np.arange(substeps) * h_fine)
        self.zeros = _frozen(np.zeros(lam.size))
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
    """A compiled scheme bound to a model, a step h on a mesh of h_fine and
    a workspace.

    It holds the scheme's lowered nodes and the shared mesh tables of
    (eigenvalues, h, h_fine).  :meth:`advance` walks the nodes from a start
    state on one window of noise prepared by :meth:`prepare_noise`.  The
    stepping loop behind :func:`step`, :func:`multi_step_solve` and
    :func:`reference_solve` binds one of these per call, so a coarse run of
    exponential Euler at h_fine equals the reference by construction.
    """

    def __init__(
        self,
        scheme: CompiledScheme,
        model: ModelSpec,
        h: float,
        h_fine: float,
        workspace: GridWorkspace,
    ):
        _check_model_orders(scheme.required_orders, model)
        self.scheme = scheme
        self.model = model
        self.workspace = workspace
        self.modes = model.modes
        self.h_fine = h_fine
        self.substeps = _whole_count(
            h, h_fine, f"step {h} is not a whole number of substeps of {h_fine}"
        )
        self.nodes, self.term_slots, self.names = scheme.lowered
        self.tables = _mesh_tables(model.eigenvalues.tobytes(), h, h_fine, self.substeps)

    def prepare_noise(self, increments: np.ndarray) -> np.ndarray | None:
        """The window's increments in the form the diffusion consumes, one
        row per substep (for the multiplication model: grid values); None
        for plans that never apply the diffusion."""
        if not self.scheme.required_orders["B"]:
            return None
        return self.model.diffusion.prepare_noise(increments, self.workspace, self.modes)

    def advance(
        self, u0: np.ndarray, noise: np.ndarray | None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """u0 plus the sum of the plan's terms over the window whose prepared
        noise is ``noise``, and the end value of every node by slot (see
        :meth:`term_values`).

        Sum nodes reduce their per-substep contributions with the end
        weights.  A node's trajectory holds its values at the left points
        r_0..r_{S-1}, Ito style: the row at r_j has the contributions
        strictly before r_j."""
        tables, model = self.tables, self.model
        values: list = []
        paths: list = []
        for kind, order, arg_slots, trajectory in self.nodes:
            path = None
            if kind is _FLOW:
                value = tables.flow * u0
                if trajectory:
                    path = tables.flow_at * u0[None, :]
            elif kind is _DRIFT_FLOW:
                base = model.drift.value(u0)
                value = tables.zeros if base is None else tables.drift_flow * base
                if trajectory:
                    path = self._running_sum(None) if base is None else tables.drift_flow_at * base
            else:
                args = [paths[a] for a in arg_slots]
                if kind is _DIFFUSION:
                    rows = model.diffusion.rows_against_noise(
                        order, u0, args, noise, self.workspace, self.modes
                    )
                    if rows is not None and order >= 2:
                        rows = rows / math.factorial(order)
                else:
                    rows = model.drift.derivative_rows(order, u0, args)
                    if rows is not None:
                        rows = rows * (self.h_fine / math.factorial(order))
                value = tables.zeros
                if rows is not None:
                    value = np.einsum("ns,sn->n", tables.end_weights, rows)
                if trajectory:
                    path = self._running_sum(rows)
            values.append(value)
            paths.append(path)
        total = u0
        for slot in self.term_slots:
            total = total + values[slot]
        return total, values

    def term_values(self, values: list[np.ndarray]) -> dict[str, np.ndarray]:
        """The plan terms' end values by name, from the node values that
        :meth:`advance` returns."""
        return {name: values[slot] for name, slot in zip(self.names, self.term_slots)}

    def _running_sum(self, rows: np.ndarray | None) -> np.ndarray:
        """Trajectory of a sum node: the decayed sum of the rows before each
        left point; zero for ``None`` rows."""
        out = np.zeros((self.substeps, self.modes))
        if rows is not None:
            running = np.zeros(self.modes)
            decay = self.tables.decay_fine
            for j, row in enumerate(rows[:-1], start=1):
                running = decay * (running + row)
                out[j] = running
        return out

    def nonfinite(self, values: list[np.ndarray]) -> NonfiniteValueError:
        """The error for a non-finite sum: names the first non-finite term."""
        for name, value in self.term_values(values).items():
            if not np.all(np.isfinite(value)):
                return NonfiniteValueError(name)
        return NonfiniteValueError("sum of plan terms")


def _solve(
    scheme: CompiledScheme,
    u0: SpectralState,
    t_end: float,
    h: float,
    path: NoisePath,
    model: ModelSpec,
    workspace: GridWorkspace | None,
    record_steps: tuple[int, ...] = (),
) -> tuple[np.ndarray, dict[str, np.ndarray], dict[int, SpectralState]]:
    """The stepping loop behind :func:`step`, :func:`reference_solve` and
    :func:`multi_step_solve`.

    Binds the plan once at step h, prepares the noise of the whole window
    [0, t_end] once, and advances u0 through consecutive h-long row slices
    of it.  Returns the end coefficients, the term values of the last step
    keyed by term name, and snapshots after the step counts in
    ``record_steps``, each of which must lie in 0..t_end / h.  A step whose
    result is not finite raises :class:`NonfiniteValueError` naming its
    first non-finite term.
    """
    _check_shapes(u0, path, model)
    plan = BoundPlan(scheme, model, h, path.h_fine, workspace or model.workspace())
    steps = _whole_count(
        t_end, h, f"t_end {t_end} is not a whole number of steps of h = {h}"
    )
    per_step = plan.substeps
    if steps * per_step > path.substeps:
        raise MeshMismatchError(
            f"[0, {t_end}] needs {steps * per_step} substeps, "
            f"path provides {path.substeps}"
        )
    outside = sorted(n for n in record_steps if not 0 <= n <= steps)
    if outside:
        raise MeshMismatchError(
            f"cannot record after {outside} steps: [0, {t_end}] has {steps}"
        )
    recorded = {0: u0} if 0 in record_steps else {}
    state, values = u0.coeffs, []
    # A blow-up surfaces as NonfiniteValueError below, not as warnings from
    # the array operations that produced the inf or nan.
    with np.errstate(over="ignore", invalid="ignore"):
        noise = plan.prepare_noise(path.increments[: steps * per_step])
        windows = [None] * steps if noise is None else noise.reshape(steps, per_step, -1)
        for n, rows in enumerate(windows, start=1):
            state, values = plan.advance(state, rows)
            if not np.isfinite(state).all():
                raise plan.nonfinite(values)
            if n in record_steps:
                recorded[n] = SpectralState(state)
    return state, plan.term_values(values), recorded


def step(
    scheme: CompiledScheme,
    u0: SpectralState,
    h: float,
    path: NoisePath,
    model: ModelSpec,
    workspace: GridWorkspace | None = None,
) -> StepResult:
    """One-step approximation at time h from u0 on the first h / h_fine
    increments of the path; the diagnostics hold each plan term's norm."""
    state, values, _ = _solve(scheme, u0, h, h, path, model, workspace)
    diagnostics = {name: float(np.linalg.norm(v)) for name, v in values.items()}
    return StepResult(state=SpectralState(state), diagnostics=diagnostics)


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
    substep of [0, t_end]: the stepping loop of :func:`multi_step_solve`
    with that scheme at h = h_fine.  A coarse run of the scheme at h_fine is
    therefore bitwise identical to this reference.  ``record_substeps``
    requests snapshots after the given substep counts; a count outside
    0..t_end / h_fine raises :class:`MeshMismatchError`.
    """
    state, _, recorded = _solve(
        _REFERENCE_SCHEME, u0, t_end, path.h_fine, path, model, workspace,
        record_substeps,
    )
    return SpectralState(state), recorded


def multi_step_solve(
    scheme: CompiledScheme,
    u0: SpectralState,
    t_end: float,
    h: float,
    path: NoisePath,
    model: ModelSpec,
    workspace: GridWorkspace | None = None,
) -> SpectralState:
    """Iterate the one-step scheme over [0, t_end] with coarse step h.

    The plan is bound once, the increments of [0, t_end] are prepared once,
    and step n consumes rows n h / h_fine .. (n + 1) h / h_fine of them.
    Raises :class:`MeshMismatchError` unless t_end is a whole number of
    steps h, h is a whole number of substeps and the path covers [0, t_end].
    """
    state, _, _ = _solve(scheme, u0, t_end, h, path, model, workspace)
    return SpectralState(state)
