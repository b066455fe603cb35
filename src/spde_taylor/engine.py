"""Compiled term sums as one-step maps, and the loop that steps them.

A compiled scheme is an ordered sum of star-free terms.  One step of size h
from u0 on the fine mesh r_j = j h_fine, j < h / h_fine, evaluates each
term per mode i:

* ``I^0_0``         -> (e^{-lambda_i h} - 1) u0, which a step adds to u0 as
                       one product, the exact semigroup e^{-lambda_i h} u0
* ``I^0_1``         -> (1 - e^{-lambda_i h}) / lambda_i F(u0)
* ``I^k_2``, k >= 0 -> sum_j e^{-lambda_i (h - r_j)} B^(k)(u0)(args_j)(dW_j) / k!
* ``I^k_1``, k >= 1 -> sum_j e^{-lambda_i (h - r_j)} F^(k)(u0)(args_j) h_fine / k!

where args_j are the argument terms' values at the left point r_j, made
from the increments strictly before r_j (Ito style).

Lowering and binding.  A scheme is lowered once into nodes in dependency
order, one per distinct term or subterm, so a shared subterm is evaluated
once per step.  Of a node's value only the end weights and the flow
factors depend on h; its per-substep rows and its trajectory depend on
r_j, u0 and the noise before r_j alone.  So a plan binds (scheme, model,
h, h_fine) and nothing else, and each node builds its rows over whatever
window of noise it is handed and contracts the first h / h_fine of them.
Binding turns each node into a pair: a step ``(u0, noise, store, out)``
that writes its end value into ``out``, and a trajectory ``(u0, noise,
store)`` of its values at the window's left points.  A node whose
operator the model binds to None (identically zero), or one of whose
arguments is dropped, is dropped, since the operators are multilinear.
Only the terms step: a node that is only an argument runs no step; its
readers pull its trajectory.  A sum node contracts its rows with the end
weights.  A plan is its start, e^{-lambda h} u0 where the scheme has an
I^0_0 term and else u0, plus its terms: the name and node step of each
other term that is kept, in term order.  A plan whose start is e^{-lambda
h} u0 and whose one term is an order-0 diffusion sum that the model fuses
(``bind_step``) is *fused*: the model writes the whole step, with no rows
and no node step.

One store per window.  A store is a dict for one window of noise and one
start state, handed to the plans of every h and scheme stepped on that
window.  It holds each sum node's rows under its term, built on first
read, by the term's step or by the first trajectory that reads them, so
each is built once; no trajectory is kept.

The in-place loop.  A run (:func:`_run`) is the one way a plan is stepped.
It allocates one state buffer, and a second for more than one step.  Each
step writes its terms' end values into scratch arrays of its own, and
its start plus those terms, in term order, into the buffer the step
before did not write.  A fused plan's step is the model's: it writes
e^{-lambda h} u0 plus the sum into the state buffer, from the noise in
the model's form, the model's ``rows`` of the windows, which the run
makes once.  The diagonal model fuses at every h and reads the windows
as they are.  The multiplication model fuses at h = h_fine, and its rows
are 1 + each window's one row of grid noise: it folds the semigroup into
its grid product.  So a reference substep is three array calls under two
Python calls: the transposed sine matrix times u, times the shifted noise
row, times the interpolant with the weight column folded in.  Between
the step counts it records, the loop tests nothing.  IEEE arithmetic
never turns an inf or a nan finite, so a run tests only its end states.
To name the term, the first failed row is replayed alone
(:func:`_first_failure`) as one-step runs, one per window, so the replay
steps through :func:`_run` too.

The reference.  :func:`reference_solve` is that loop over the exponential
Euler plan at h = h_fine, so exponential Euler stepped at h_fine equals it
bitwise.  The one-step order study (``harness``) and :func:`step` run
:func:`_run` for one step over the whole window with a shared store, the
chunk's or the drawn :class:`NoisePath`'s, so a prefix steps with the
bytes of the study: BLAS blocks a product's rows by their count, so the
rows of a prefix alone would differ by rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .models import GridWorkspace, ModelSpec, SpectralState
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
    """Path ``path_index``'s stream, ``Philox(key=seed, counter=path_index
    << 128)``, so any path's noise is regenerated independently of
    evaluation order."""
    bits = np.random.Philox(key=seed, counter=path_index * PATH_COUNTER_STRIDE)
    return np.random.Generator(bits)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Window:
    """A drawn path's increments, shared with its prefixes, their prepared
    form per diffusion operator and the stores of :func:`step`."""

    __slots__ = ("increments", "prepared", "stores")

    def __init__(self, increments: np.ndarray):
        self.increments = increments
        self.prepared: dict[object, np.ndarray] = {}
        self.stores: dict[tuple[ModelSpec, bytes], dict[TermExpr, np.ndarray]] = {}


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Gaussian increments of the driving cylindrical process: row j holds
    the M per-mode increments over [j h_fine, (j+1) h_fine], i.i.d.
    N(0, h_fine), read-only (a writeable array is copied).  Paths compare
    and hash by identity.  A path and its :meth:`prefix` share one window:
    the whole drawn path prepared once per diffusion operator, and the
    stores that :func:`step` hands its one-step runs, one per model and
    start state, kept while the path lives, so draw a path only as long as
    the horizon it is stepped over."""

    increments: np.ndarray
    h_fine: float
    _window: _Window = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.increments, dtype=float)
        if arr.ndim != 2:
            raise ValueError("increments must be a (substeps, modes) array")
        if not 0.0 < self.h_fine < math.inf:
            raise ValueError(f"h_fine must be positive and finite, got {self.h_fine}")
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
        """``substeps`` rows of ``noise_modes`` N(0, h_fine) draws from ``rng``."""
        increments = rng.standard_normal((substeps, noise_modes))
        increments *= np.sqrt(h_fine)
        return NoisePath(increments=_frozen(increments), h_fine=h_fine)

    def prefix(self, substeps: int) -> "NoisePath":
        """The path's first ``substeps`` rows, sharing its window."""
        if not 0 <= substeps <= self.substeps:
            raise MeshMismatchError(
                f"requested {substeps} substeps from a path of {self.substeps}"
            )
        out = NoisePath(increments=self.increments[:substeps], h_fine=self.h_fine)
        object.__setattr__(out, "_window", self._window)
        return out

    def _prepared_noise(self, plan: "BoundPlan") -> np.ndarray:
        """The window's increments prepared by ``plan``, read-only, made on
        first use per diffusion operator and kept."""
        window, diffusion = self._window, plan.model.diffusion
        if diffusion not in window.prepared:
            window.prepared[diffusion] = _frozen(plan.prepare_noise(window.increments))
        return window.prepared[diffusion]


class RequiredOrders(NamedTuple):
    """Orders of the drift (F) and diffusion (B) derivatives a plan applies."""

    drift: frozenset[int]
    diffusion: frozenset[int]


@dataclass(frozen=True)
class CompiledScheme:
    """A star-free term sum in canonical order.  Its hash is computed once
    and kept, since every :func:`step` looks its plan up by the scheme;
    pickling drops it."""

    terms: tuple[TermExpr, ...]
    source_wood: SWood | None = None

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return CompiledScheme, (self.terms, self.source_wood)

    @cached_property
    def _hash(self) -> int:
        return hash((self.terms, self.source_wood))

    def describe(self) -> str:
        """The terms rendered compactly and joined by ``+``, or ``0``."""
        return " + ".join(render_compact(t) for t in self.terms) or "0"

    @cached_property
    def lowered(self) -> tuple[tuple[_Node, ...], tuple[int, ...]]:
        """:func:`_lower` of the terms, once per scheme."""
        return _lower(self.terms)

    @cached_property
    def required_orders(self) -> RequiredOrders:
        """The derivative orders of the lowered nodes: ``I^0_1`` and
        ``I^0_2`` apply the order-0 maps, ``I^i_j`` the order-i ones."""
        nodes = self.lowered[0]
        return RequiredOrders(
            drift=frozenset(o for kind, o, *_ in nodes if kind in (_DRIFT_FLOW, _DRIFT)),
            diffusion=frozenset(o for kind, o, *_ in nodes if kind is _DIFFUSION),
        )


@dataclass(frozen=True)
class StepResult:
    state: SpectralState


def compile_scheme(expr: TermExpr, source_wood: SWood | None = None) -> CompiledScheme:
    """The scheme of the term sum ``expr``, its terms in canonical order;
    a starred term raises :class:`NotImplementableError`."""
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


_STEP_MESSAGE = "step {} is not a whole number of substeps of {}"


def _whole_count(span: float, unit: float, message: str) -> int:
    """span / unit, which must be a positive whole number; else the error
    is ``message`` formatted with span and unit."""
    ratio = span / unit
    if not math.isfinite(ratio):
        raise MeshMismatchError(f"{span} / {unit} is not a finite count")
    count = int(round(ratio))
    if count < 1 or abs(ratio - count) > 1e-9 * max(1.0, ratio):
        raise MeshMismatchError(message.format(span, unit))
    return count


# Node kinds of a lowered plan: the semigroup flow I^0_0, the drift flow
# I^0_1, and the left-point substep sums I^i_2 (i >= 0) and I^i_1 (i >= 1).
_FLOW, _DRIFT_FLOW, _DIFFUSION, _DRIFT = "flow", "drift flow", "diffusion", "drift"

#: (kind, derivative order, argument slots, term)
_Node = tuple[str, int, tuple[int, ...], TermExpr]


def _lower(terms: tuple[TermExpr, ...]) -> tuple[tuple[_Node, ...], tuple[int, ...]]:
    """The distinct terms and subterms of ``terms`` as nodes in dependency
    order, each node's argument slots earlier than its own, and the slot
    of each of ``terms``; the walk keeps its own stack."""
    slots: dict[TermExpr, int] = {}
    nodes: list[_Node] = []
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
        slots[term] = len(nodes)
        nodes.append((kind, order, tuple(slots[a] for a in args), term))
    return tuple(nodes), tuple(slots[t] for t in terms)


class _MeshTables:
    """The per-mode factors of a step h on a mesh of h_fine, read-only."""

    def __init__(self, lam: np.ndarray, h: float, h_fine: float, substeps: int):
        self.lam, self.h = lam, h
        self.times = _frozen(np.arange(substeps) * h_fine)
        self.decay_fine = _frozen(np.exp(-lam * h_fine))
        self.semigroup = _frozen(np.exp(-lam * h))
        self.flow = _frozen(np.expm1(-lam * h))
        self.drift_flow = _frozen(-self.flow / lam)

    # Only the tables of a plan's h need the end weights, and only plans with
    # an inner I^0_0 or I^0_1 the window's trajectory factors.
    @cached_property
    def end_weights(self) -> np.ndarray:
        """e^{-lambda_i (h - r_j)}, indexed [j, i]: rows contract with them
        along contiguous memory."""
        return _frozen(np.exp(-self.lam[None, :] * (self.h - self.times[:, None])))

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
    """A compiled scheme bound to a model and a step h on a mesh of h_fine
    (see the module docstring): a start, e^{-lambda h} u0 or u0, plus the
    node step of each term in :attr:`terms`, and no buffers of its own."""

    def __init__(self, scheme: CompiledScheme, model: ModelSpec, h: float, h_fine: float):
        self.scheme = scheme
        self.model = model
        self.h_fine = h_fine
        self.substeps = _whole_count(h, h_fine, _STEP_MESSAGE)
        nodes, term_slots = scheme.lowered
        self.tables = _mesh_tables(model.eigenvalues.tobytes(), h, h_fine, self.substeps)
        bound: list = []
        for node in nodes:
            bound.append(self._bind(node, bound))
        # u0 plus one I^0_0 term is stepped as e^{-lambda h} u0, so that
        # term's node steps only for a further I^0_0 term.
        summed = list(term_slots)
        flows = [slot for slot in summed if nodes[slot][0] is _FLOW]
        #: Whether a step starts from e^{-lambda h} u0 rather than u0.
        self.folds_flow = bool(flows)
        if flows:
            summed.remove(flows[0])
        summed = [slot for slot in summed if bound[slot] is not None]
        #: The (name, node step) of each term a step adds to its start, in
        #: term order.
        self.terms = tuple((render_compact(nodes[s][3]), bound[s][0]) for s in summed)
        #: The model's :class:`~spde_taylor.models.FusedStep` (``bind_step``)
        #: where a step is e^{-lambda h} u0 plus one order-0 diffusion sum
        #: that the model fuses, else None.
        self.fused = None
        fuse = getattr(model.diffusion, "bind_step", None)
        if fuse and self.folds_flow and [nodes[s][:2] for s in summed] == [(_DIFFUSION, 0)]:
            self.fused = fuse(self.tables.end_weights)

    def _bind(self, node: _Node, bound: list):
        """The pair (step, trajectory) of ``node``, or None where the model
        binds its operator to None or an argument's pair in ``bound`` is
        None.  The step ``(u0, noise, store, out)`` writes the node's end
        value at h into ``out``; the trajectory ``(u0, noise, store)``
        returns its values at the left points of the window ``noise``.  A
        sum node's rows, B^(k) / k! or F^(k) h_fine / k! of its arguments'
        trajectories, are fetched from ``store`` or built there on first
        read; its step contracts them with the end weights."""
        # The closures hold no reference to the plan, so a plan is freed as
        # soon as its last user drops it, not by the cycle collector.
        kind, order, arg_slots, term = node
        args = [bound[a] for a in arg_slots]
        if None in args:
            return None
        lam, h_fine, tables = self.model.eigenvalues.tobytes(), self.h_fine, self.tables

        def window(noise):  # the trajectory factors of the window
            return _mesh_tables(lam, noise.shape[-2] * h_fine, h_fine, noise.shape[-2])

        if kind is _FLOW:
            flow = tables.flow
            return (lambda u0, noise, store, out: np.multiply(flow, u0, out=out),
                    lambda u0, noise, store: window(noise).flow_at * u0[..., None, :])
        if kind is _DRIFT_FLOW:
            drift, drift_flow = self.model.drift.bind_value(), tables.drift_flow
            return None if drift is None else (
                lambda u0, noise, store, out: np.multiply(drift_flow, drift(u0), out=out),
                lambda u0, noise, store: window(noise).drift_flow_at * drift(u0)[..., None, :])
        operator = self.model.diffusion if kind is _DIFFUSION else self.model.drift
        derivative = operator.bind_rows(order)
        if derivative is None:
            return None
        trajectories = [trajectory for _, trajectory in args]
        weights, decay, divisor = tables.end_weights, tables.decay_fine, math.factorial(order)
        substeps = weights.shape[0]

        def rows(u0, noise, store):
            found = store.get(term)
            if found is None:
                paths = [trajectory(u0, noise, store) for trajectory in trajectories]
                if kind is _DRIFT:
                    found = derivative(u0, paths) * (h_fine / divisor)
                else:
                    found = derivative(u0, paths, noise)
                    found = found / divisor if order >= 2 else found
                found = store[term] = _frozen(found)
            return found

        return (
            lambda u0, noise, store, out: np.einsum(
                "sn,...sn->...n", weights, rows(u0, noise, store)[..., :substeps, :], out=out
            ),
            lambda u0, noise, store: _running_sum(rows(u0, noise, store), decay),
        )

    def prepare_noise(self, increments: np.ndarray) -> np.ndarray:
        """The increments, (substeps, M) or (paths, substeps, M), in the
        form the diffusion consumes, one row per substep (for the
        multiplication model: grid values)."""
        # Overflow shows up as a non-finite state in the stepping loop.
        with np.errstate(over="ignore", invalid="ignore"):
            return self.model.diffusion.prepare_noise(increments)

    def stepper(self, shape: tuple[int, ...]):
        """``(u0, noise, store, state) -> None``, one step of h from states
        of ``shape``: it writes its start, e^{-lambda h} u0 or u0 (see
        :attr:`folds_flow`), plus the end value of each of :attr:`terms`,
        in term order, into ``state``, through scratch arrays of those
        values of its own.  It writes neither u0 nor the noise: an
        argument's rows are built in the store by the first trajectory that
        reads them.  A :attr:`fused` plan's step is the model's, and reads
        the noise in the model's form, ``fused.rows`` of the window."""
        if self.fused is not None:
            fused = self.fused.step
            return lambda u0, noise, store, state: fused(u0, noise, state)
        terms = [np.empty(shape) for _ in self.terms]
        nodes = [(run, out) for (_, run), out in zip(self.terms, terms)]
        if self.folds_flow:
            start, first, rest = np.multiply, self.tables.semigroup, terms
        elif terms:
            start, first, rest = np.add, terms[0], terms[1:]
        else:
            return lambda u0, noise, store, state: np.copyto(state, u0)

        def step(u0, noise, store, state):
            for run, out in nodes:
                run(u0, noise, store, out)
            start(u0, first, out=state)
            for value in rest:
                state += value

        return step


def _running_sum(rows: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """Trajectory of a sum node: the sum of the rows before each left point,
    decayed by ``decay`` per substep, per path.  The S rows run in blocks
    of w = ceil(sqrt(S)): one pass steps the running sum within every block
    at once, a second carries each block's end into the next, and a third
    adds each block's carry, decayed, to its rows; so the loops take about
    3 sqrt(S) steps, not S.  All of it is elementwise, so a path's values
    do not depend on its batch."""
    substeps = rows.shape[-2]
    width = math.isqrt(max(substeps - 1, 0)) + 1
    out = np.empty(rows.shape)
    out[..., ::width, :] = 0.0
    for t in range(1, width):
        within = out[..., t::width, :]
        count = within.shape[-2]
        before = out[..., t - 1 :: width, :][..., :count, :]
        np.multiply(decay, before + rows[..., t - 1 :: width, :][..., :count, :], out=within)
    powers = decay ** np.arange(width + 1)[:, None]
    ends = decay * (out[..., width - 1 :: width, :] + rows[..., width - 1 :: width, :])
    # carry[..., k, :]: the sum before block k's first row, of the earlier blocks.
    carry = np.zeros(rows.shape[:-2] + (-(-substeps // width), rows.shape[-1]))
    for k in range(1, carry.shape[-2]):
        np.add(powers[width] * carry[..., k - 1, :], ends[..., k - 1, :], out=carry[..., k, :])
    for t in range(width):
        later = out[..., width + t :: width, :]
        later += powers[t] * carry[..., 1 : 1 + later.shape[-2], :]
    return out


def _windows(plan: BoundPlan, noise: np.ndarray, steps: int) -> np.ndarray:
    """The prepared noise of each of ``steps`` consecutive steps of the
    plan's h, step n's the nth of the leading axis: for one step the whole
    window ``noise``, else its h / h_fine-row blocks, as views with no
    copies."""
    if steps == 1:
        return noise[None]
    windows = noise[..., : steps * plan.substeps, :]
    windows = windows.reshape(windows.shape[:-2] + (steps, plan.substeps, windows.shape[-1]))
    return windows.swapaxes(-3, 0)


# A blow-up surfaces in the end states, not as warnings from the array
# operations that produced the inf or nan.  As a decorator, errstate costs
# half of what its with statement does per call.
@np.errstate(over="ignore", invalid="ignore")
def _run(
    plan: BoundPlan,
    states: np.ndarray,
    noise: np.ndarray,
    steps: int,
    record_steps: tuple[int, ...] = (),
    store: dict | None = None,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The stepping loop (see the module docstring), the only code that
    steps a plan, the failure replay's steps included: advances ``states``,
    (N,) or (paths, N), which it only reads, by ``steps`` steps of h over
    the :func:`_windows` of the prepared noise ``noise``, (S, ·) or
    (paths, S, ·), which a :attr:`~BoundPlan.fused` plan reads in the
    model's form, ``fused.rows`` of them all, made once.  A one-step run
    keeps its rows in ``store``, the window's store for this start state,
    when one is given; every other step keeps them in a fresh store.
    Returns the end states, one of the run's buffers, and the states after
    each step count in ``record_steps``: ``states`` itself for 0, the end
    states for ``steps`` and copies between.  A row that goes non-finite
    runs on, non-finite, and the other rows never see it."""
    step = plan.stepper(states.shape)
    windows = _windows(plan, noise, steps)
    if plan.fused is not None:
        windows = plan.fused.rows(windows)
    out = np.empty(states.shape)
    if steps == 1:
        step(states, windows[0], {} if store is None else store, out)
        return out, {n: (states, out)[n] for n in record_steps} if record_steps else {}
    recorded = {0: states} if 0 in record_steps else {}
    buffers, done = itertools.cycle((out, np.empty(states.shape))), 0
    # The loop between two recorded counts tests nothing per step; zip
    # draws a buffer only for a window, so the two keep alternating.
    for stop in sorted({*record_steps, steps} - {0}):
        for window, out in zip(windows[done:stop], buffers):
            step(states, window, {}, out)
            states = out
        if stop in record_steps:
            recorded[stop] = states if stop == steps else states.copy()
        done = stop
    return states, recorded


@np.errstate(over="ignore", invalid="ignore")
def _first_failure(
    plan: BoundPlan, start: np.ndarray, noise: np.ndarray, end: np.ndarray, steps: int
) -> NonfiniteValueError:
    """The error naming the first non-finite term of the first non-finite
    row of ``end``, the (paths, N) end states of a :func:`_run` of ``steps``
    steps from ``start`` over ``noise``, at that row's first non-finite
    step.  Replays the row alone, one :func:`_run` of one step per window
    of the run, each in a fresh store: a batch's products are stacks of
    one-path products, and a store holds the rows the step would build, so
    the row replays with the bytes it ran with.  At its first non-finite
    step, each of :attr:`BoundPlan.terms` runs on that step's window in a
    fresh store, and the error names the first term that is not finite
    there, else the sum of the terms: the folded I^0_0 is finite wherever
    u0 is, and a dropped term is zero."""
    row = np.flatnonzero(~np.isfinite(end).all(axis=-1))[0]
    start, noise = start[row : row + 1], noise[row : row + 1]
    for window in _windows(plan, noise, steps):
        state, _ = _run(plan, start, window, 1)
        if not np.isfinite(state).all():
            store, value = {}, np.empty(start.shape)
            for name, term in plan.terms:
                term(start, window, store, value)
                if not np.isfinite(value).all():
                    return NonfiniteValueError(name)
            return NonfiniteValueError("sum of plan terms")
        start = state


# An order-study op binds six plans, the reference's and one per h, and the
# benchmark's cycle of four schemes 21; a plan holds no buffers, only its
# node steps and the mesh tables of its h.
@lru_cache(maxsize=32)
def _plan(scheme: CompiledScheme, model: ModelSpec, h: float, h_fine: float) -> BoundPlan:
    """The bound plan of (scheme, model, h, h_fine), shared by the calls of
    :func:`step` and :func:`reference_solve`."""
    return BoundPlan(scheme, model, h, h_fine)


def _check_inputs(
    u0: SpectralState, path: NoisePath, model: ModelSpec, workspace: GridWorkspace | None,
    span: float, message: str,
) -> int:
    """The count of the path's substeps in [0, span], once the state and
    the path fit the model and the path provides them; ``message``, with
    span and h_fine, is the error for a count that is not whole.
    ``workspace`` must be None or ``model.workspace()``."""
    if u0.modes != model.modes:
        raise EngineError(f"state has {u0.modes} modes, model {model.modes}")
    if path.noise_modes != model.noise_modes:
        raise EngineError(
            f"path drives {path.noise_modes} noise modes, model {model.noise_modes}"
        )
    if workspace is not None and workspace != model.workspace():
        raise EngineError(
            f"the model computes on its own grid of {model.workspace().grid_points} "
            f"points, not on {workspace.grid_points}"
        )
    substeps = _whole_count(span, path.h_fine, message)
    if substeps > path.substeps:
        raise MeshMismatchError(
            f"[0, {span}] needs {substeps} substeps, path provides {path.substeps}"
        )
    return substeps


def step(
    scheme: CompiledScheme,
    u0: SpectralState,
    h: float,
    path: NoisePath,
    model: ModelSpec,
    workspace: GridWorkspace | None = None,
) -> StepResult:
    """The one-step approximation at h from ``u0`` on the first h / h_fine
    increments of ``path``, as the result's state (see the module docstring
    for the path's window and store).  A step past the path raises
    :class:`MeshMismatchError` before a plan is bound, a non-finite state
    :class:`NonfiniteValueError` naming the first non-finite term."""
    _check_inputs(u0, path, model, workspace, h, _STEP_MESSAGE)
    plan = _plan(scheme, model, h, path.h_fine)
    noise = path._prepared_noise(plan)
    store = path._window.stores.setdefault((model, u0.coeffs.tobytes()), {})
    state, _ = _run(plan, u0.coeffs, noise, 1, store=store)
    if not np.isfinite(state).all():
        raise _first_failure(plan, u0.coeffs[None], noise[None], state[None], 1)
    return StepResult(state=SpectralState._adopt(state))


_REFERENCE_SCHEME = builtin_scheme("exp-euler")


def reference_solve(
    u0: SpectralState,
    t_end: float,
    path: NoisePath,
    model: ModelSpec,
    workspace: GridWorkspace | None = None,
    record_substeps: tuple[int, ...] = (),
) -> tuple[SpectralState, dict[int, SpectralState]]:
    """The fine-mesh surrogate of the exact solution at ``t_end``, and
    snapshots after the substep counts in ``record_substeps``: exponential
    Euler stepped at h_fine over ``path``.  A t_end off the mesh or past
    the path, or a count outside 0..t_end / h_fine, raises
    :class:`MeshMismatchError`; a non-finite state
    :class:`NonfiniteValueError` naming the first non-finite term."""
    steps = _check_inputs(
        u0, path, model, workspace, t_end, "t_end {} is not a whole number of steps of h = {}"
    )
    outside = sorted(n for n in record_substeps if not 0 <= n <= steps)
    if outside:
        raise MeshMismatchError(
            f"cannot record after {outside} steps: [0, {t_end}] has {steps}"
        )
    plan = _plan(_REFERENCE_SCHEME, model, path.h_fine, path.h_fine)
    noise = path._prepared_noise(plan)[:steps]
    state, recorded = _run(plan, u0.coeffs, noise, steps, record_substeps)
    if not np.isfinite(state).all():
        raise _first_failure(plan, u0.coeffs[None], noise[None], state[None], steps)
    return SpectralState._adopt(state), {n: SpectralState._adopt(s) for n, s in recorded.items()}
