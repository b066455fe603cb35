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
the plan's own I^0_0) is evaluated once per step.  A sum node's
per-substep rows, and the trajectory a later node reads, depend on the left
points r_j, the start state and the noise before r_j, not on h: only the
end weights and the flow factors do.  So a plan binds (scheme, model, h,
h_fine) alone: each node builds its rows over the window of noise it is
handed and contracts h's end weights with the first h / h_fine of them.
One store per window and start state, a dict handed to the plans of every
h and every scheme on that window, holds each summed term's rows under the
term, so each is built once.  A node makes the trajectories it reads
while it builds its rows, from u0 or from their rows in the store, and
keeps none: its rows are then stored.  A diffusion node that no node
reads, of a model that fuses the end-weighted sum (the diagonal model),
builds no rows.  The per-mode factors are built once per process for
each (eigenvalues, h, h_fine) and shared read-only; a trajectory's factors
are those of its window, looked up when it is made.

Binding a plan turns each node into a step function ``(u0, noise, store,
out)`` that writes the node's end value into ``out`` and holds everything
the node reads: its rows of those factors, its k! scale, the model
operator bound to its order and the makers of its arguments' trajectories.
A node whose operator the model binds to None, identically zero (the zero
drift's drift flow), or one of whose arguments vanishes, is dropped then:
it costs nothing per step and reads nothing.  A step runs the nodes' arithmetic and store
lookups, with no dispatch on the node kind and no argument checks.

The stepping loop steps in place, for one path or for a batch of paths,
one row each: a run allocates once a (nodes, ..., N) value array and two
state buffers, and each step writes each node's end value into its row of
the value array and u0 plus the terms, in term order, into the buffer the
step before did not write.  A plan bound to one h advances the states
through consecutive h-long row blocks of their noise windows, prepared
once (for the multiplication model: moved to the grid), and tests the end
states for inf and nan once per run.  A plan that reads no trajectory
steps without a store, on scratch rows; at h = h_fine its one diffusion
node has the model write its one row into the node's row of the value
array and multiplies it by the end-weight column there.  For the reference
that is, per substep, the two matrix products of the diffusion, one
pointwise and two per-mode products, and the sum of two terms, with one
fresh grid row and no other array made.  The fine-mesh reference
:func:`reference_solve` is that loop over the exponential Euler plan at
h = h_fine, which makes scheme-versus-reference comparisons on shared
noise bit-consistent.  :func:`step` hands a plan of its h the whole
prepared window of a drawn :class:`NoisePath`, which is prepared once, and
the path's store for the model and start state, so the steps of several h
and schemes on its prefixes build each term's rows once and have the
bytes of the order study (``harness``), which builds them once per chunk
of paths over the chunk's whole window, in the chunk's store.  Both take
their plan from a small cache of bound plans, which hold no buffers: an
order study's ops bind the same few (scheme, model, h, h_fine) again and
again.

Monte-Carlo streams come from a counter-based generator: path p draws from
``Philox(key=seed, counter=p << 128)``, so any path's noise can be
regenerated independently of evaluation order or threading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
    """A drawn path's increments and what is built from them on first use,
    shared by the path and its prefixes: their prepared form per diffusion
    operator, and per model and start state the store of the (S, N) rows of
    each term that :func:`step` has evaluated over the whole window of S
    substeps (see :meth:`BoundPlan.advance`)."""

    __slots__ = ("increments", "prepared", "stores")

    def __init__(self, increments: np.ndarray):
        self.increments = increments
        self.prepared: dict[object, np.ndarray] = {}
        self.stores: dict[tuple[ModelSpec, bytes], dict[TermExpr, np.ndarray]] = {}


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Gaussian increments of the driving cylindrical process on a fine mesh.

    Row j holds the M per-mode increments over [j*h_fine, (j+1)*h_fine];
    entries are i.i.d. N(0, h_fine).  The increments are read-only: a
    writeable array is copied, one that is already read-only (such as the
    fresh array of :meth:`draw` or the row view of :meth:`prefix`) is taken
    over as it is.  Paths compare and hash by identity.

    A path built from an array is its own root window; :meth:`prefix`
    shares it.  The root's increments are prepared for a diffusion
    operator once, on first use, and every plan stepped on the path or a
    prefix is handed that whole prepared window.  :func:`step` builds each
    term's per-substep rows over it once per model and start state, in the
    path's store for them, and a plan of any h contracts the first
    h / h_fine of them; the reference runs over its first t_end / h_fine
    rows.  So a prefix stepped before or after the reference of the whole
    path, or after a step of another h, gets the same bytes, and those of
    the order study, which builds its rows over whole windows too.

    The first use prepares the whole drawn window, however few rows it
    reads, and the path keeps that form, and one (S, N) row block per
    summed term and start state, as long as it lives.  For the
    multiplication model the prepared form has one column per grid point,
    about 4*max(N, M) of them against M for the increments: a 2^17-substep
    path at N = M = 64 holds about 267 MB after one step on ``prefix(1)``,
    and 64 MB more per summed term of the scheme (I^0_2 and every I^i_j
    with i >= 1).  Draw a path only as long as the horizon it is stepped
    over.
    """

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
        increments = rng.standard_normal((substeps, noise_modes))
        increments *= np.sqrt(h_fine)
        return NoisePath(increments=_frozen(increments), h_fine=h_fine)

    def prefix(self, substeps: int) -> "NoisePath":
        if not 0 <= substeps <= self.substeps:
            raise MeshMismatchError(
                f"requested {substeps} substeps from a path of {self.substeps}"
            )
        out = NoisePath(increments=self.increments[:substeps], h_fine=self.h_fine)
        object.__setattr__(out, "_window", self._window)
        return out

    def _prepared_noise(self, plan: "BoundPlan") -> np.ndarray:
        """The root window's noise prepared by ``plan`` (see
        :meth:`BoundPlan.prepare_noise`), read-only: prepared on first use
        per diffusion operator and kept."""
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
    """A star-free term sum in canonical order.  Its hash is computed on
    first use and kept, as :class:`~spde_taylor.trees.STree` keeps its own,
    since every :func:`step` looks its plan up by the scheme; pickling
    drops it."""

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
            drift=frozenset(o for kind, o, *_ in nodes if kind in (_DRIFT_FLOW, _DRIFT)),
            diffusion=frozenset(o for kind, o, *_ in nodes if kind is _DIFFUSION),
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


def _lower(
    terms: tuple[TermExpr, ...],
) -> tuple[tuple[_Node, ...], tuple[int, ...], tuple[str, ...]]:
    """The distinct terms and subterms of ``terms`` as nodes in dependency
    order, the slot and the name of each of ``terms``.  A node's argument
    slots are all earlier.  The walk keeps its own stack, so any depth
    works."""
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
    term_slots = tuple(slots[t] for t in terms)
    return tuple(nodes), term_slots, tuple(render_compact(t) for t in terms)


class _MeshTables:
    """The per-mode factors of a step h on a mesh of h_fine, read-only."""

    def __init__(self, lam: np.ndarray, h: float, h_fine: float, substeps: int):
        self.lam, self.h = lam, h
        self.times = _frozen(np.arange(substeps) * h_fine)
        self.decay_fine = _frozen(np.exp(-lam * h_fine))
        self.flow = _frozen(np.expm1(-lam * h))
        self.drift_flow = _frozen(-self.flow / lam)

    # Only the tables of a plan's h need the end weights, and only plans with
    # an inner I^0_0 or I^0_1 the window's trajectory factors.
    @cached_property
    def end_weights(self) -> np.ndarray:
        """e^{-lambda_i (h - r_j)}, indexed [i, j]."""
        return _frozen(np.exp(-self.lam[:, None] * (self.h - self.times[None, :])))

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
    """A compiled scheme bound to a model and a step size h on a mesh of
    h_fine, for one step from a start state over a window of noise.

    A plan binds (scheme, model, h, h_fine) and nothing else.  Of a node's
    one-step evaluation only the end weights e^{-lambda (h - r_j)} and the
    flow factors depend on h; its per-substep rows and its trajectory
    depend on the left points r_j, the start state and the noise before
    r_j alone.  So each node builds them over whatever window of noise
    :meth:`advance` is handed, at least h / h_fine rows, and contracts h's
    end weights with the first h / h_fine rows; plans of several h and
    schemes handed one window share the rows through its store.  Binding
    lowers each node once into a step ``(u0, noise, store, out)`` that
    writes the node's end value into ``out`` and holds what the node reads:
    the shared mesh tables of h, its k! scale, the model operator bound to
    its order and the makers of the trajectories it reads, which it makes
    when it builds its rows.  A node whose operator the model binds to
    None, identically zero, or one of whose arguments vanishes (the
    operators are multilinear) is dropped; a node is read where a kept node
    takes it as an argument.  A trajectory's factors come from the tables
    of its window, looked up when it is made.

    A plan holds no buffers: the value array and the states that a step
    writes belong to the run (:func:`_run`) or to the call
    (:meth:`advance`), so one plan steps any paths in any order, and
    :func:`step` and :func:`reference_solve` share plans through a small
    cache.  Every caller steps through the same node steps (see
    :meth:`stepper`); the stepping loop hands the plan consecutive windows
    of h / h_fine rows, so a run of exponential Euler at h_fine equals the
    reference by construction.
    """

    def __init__(self, scheme: CompiledScheme, model: ModelSpec, h: float, h_fine: float):
        self.scheme = scheme
        self.model = model
        self.h_fine = h_fine
        self.substeps = _whole_count(h, h_fine, _STEP_MESSAGE)
        nodes, self.term_slots, self.names = scheme.lowered
        self.tables = _mesh_tables(model.eigenvalues.tobytes(), h, h_fine, self.substeps)
        operators: list = []
        read: set[int] = set()
        for kind, order, arg_slots, _ in nodes:
            live = all(operators[a] is not None for a in arg_slots)
            operators.append(self._operator(kind, order) if live else None)
            if operators[-1] is not None:
                read.update(arg_slots)
        #: Whether a node reads a trajectory, which needs a store.
        self.reads = bool(read)
        steps = []
        for slot, (operator, (kind, order, arg_slots, term)) in enumerate(zip(operators, nodes)):
            run = None
            if operator is not None:
                args = [self._trajectory(operators[a], nodes[a]) for a in arg_slots]
                run = self._bind(operator, kind, order, args, term, slot in read)
            steps.append(run)
        self.steps = tuple(steps)

    def _operator(self, kind: str, order: int):
        """What a node of ``kind`` and ``order`` applies, None where the
        model binds it to None: the flow factor of h, F, or ``(u0, args,
        noise) -> rows`` of B^(k) / k! or of F^(k) h_fine / k!; the order-0
        diffusion rows also take an ``out`` for a one-row window (see
        ``DiffusionOperator``)."""
        if kind is _FLOW:
            return self.tables.flow
        if kind is _DRIFT_FLOW:
            return self.model.drift.bind_value()
        if kind is _DIFFUSION:
            return _over_factorial(order, self.model.diffusion.bind_rows(order))
        derivative = self.model.drift.bind_rows(order)
        if derivative is None:
            return None
        scale = self.h_fine / math.factorial(order)
        return lambda u0, args, noise: derivative(u0, args) * scale

    def _trajectory(self, operator, node: _Node):
        """``(u0, noise, store) -> trajectory`` of a read node that applies
        ``operator``, over the window ``noise``: its values at the left
        points r_0..r_{S-1}, Ito style (the row at r_j has the contributions
        strictly before r_j), a sum node's made from its rows in the store."""
        kind, _, _, term = node
        lam, h_fine, decay = self.model.eigenvalues.tobytes(), self.h_fine, self.tables.decay_fine

        def window(noise):  # the trajectory factors of the window
            return _mesh_tables(lam, noise.shape[-2] * h_fine, h_fine, noise.shape[-2])

        if kind is _FLOW:
            return lambda u0, noise, store: window(noise).flow_at * u0[..., None, :]
        if kind is _DRIFT_FLOW:
            return lambda u0, noise, store: (
                window(noise).drift_flow_at * operator(u0)[..., None, :]
            )
        return lambda u0, noise, store: _running_sum(store[term], decay)

    def _bind(
        self, operator, kind: str, order: int, args: list, term: TermExpr, read: bool
    ):
        """The node that applies ``operator`` as a step ``(u0, noise, store,
        out)`` that writes its end value at h into ``out``, (..., N) (see
        :meth:`stepper`), where ``args`` make the trajectories it reads (see
        :meth:`_trajectory`) and ``read`` says whether a later node reads its
        own.  Sum nodes reduce the first h / h_fine of their per-substep
        rows with h's end weights into ``out``.  Without a store, which only
        a run of a plan that reads nothing passes (see :func:`_run`), the
        window has exactly h / h_fine rows and the rows are scratch; at h =
        h_fine the model writes its one row into ``out`` and the node
        multiplies it there by the end-weight column, the bytes of the
        reduced sum.  A diffusion node that no node reads takes the reduced
        sum from the model, without the rows, where the model fuses it
        (``bind_sum``)."""
        # The steps hold no reference to the plan, so a plan is freed as soon
        # as its last user drops it, not by the cycle collector.
        if kind is _FLOW:
            return lambda u0, noise, store, out: np.multiply(operator, u0, out=out)
        if kind is _DRIFT_FLOW:
            drift_flow = self.tables.drift_flow
            return lambda u0, noise, store, out: np.multiply(drift_flow, operator(u0), out=out)
        fused = None if read else getattr(self.model.diffusion, "bind_sum", None)
        if kind is _DIFFUSION and fused is not None:
            total = _over_factorial(order, fused(order, self.tables.end_weights))
            return lambda u0, noise, store, out: np.copyto(
                out, total(u0, [make(u0, noise, store) for make in args], noise)
            )
        end_sum = bind_end_sum(self.tables.end_weights)
        column = self.tables.end_weights[:, 0] if self.substeps == 1 else None

        def sum_step(u0, noise, store, out):
            if store is None:  # a run of a plan that reads nothing: scratch rows
                if column is None:
                    end_sum(operator(u0, (), noise), out)
                else:
                    operator(u0, (), noise, out)
                    out *= column
                return
            rows = store.get(term)
            if rows is None:
                paths = [make(u0, noise, store) for make in args]
                rows = store[term] = _frozen(operator(u0, paths, noise))
            end_sum(rows, out)

        return sum_step

    def prepare_noise(self, increments: np.ndarray) -> np.ndarray:
        """The increments, (substeps, M) or (paths, substeps, M), in the
        form the diffusion consumes, one row per substep (for the
        multiplication model: grid values)."""
        # Overflow shows up as a non-finite state in the stepping loop.
        with np.errstate(over="ignore", invalid="ignore"):
            return self.model.diffusion.prepare_noise(increments)

    def stepper(self, shape: tuple[int, ...]):
        """A new value array of (nodes,) + ``shape`` and ``(u0, noise, store,
        state) -> None``, one step of h from states of ``shape`` over the
        window ``noise`` that writes each kept node's end value into its
        slot of the value array and u0 plus the plan's terms, summed in term
        order, into ``state``; a dropped node's slot is never written.  The
        node steps run in slot order, and none writes u0 or the window.
        ``store`` is that of :meth:`advance`, or None in a run of a plan
        that reads nothing (see :func:`_run`)."""
        values = np.empty((len(self.steps),) + shape)
        nodes = [(run, values[slot]) for slot, run in enumerate(self.steps) if run is not None]
        terms = [values[slot] for slot in self.term_slots if self.steps[slot] is not None]
        if not terms:
            return values, lambda u0, noise, store, state: np.copyto(state, u0)
        first, rest = terms[0], terms[1:]

        def step(u0, noise, store, state):
            for run, out in nodes:
                run(u0, noise, store, out)
            np.add(u0, first, out=state)
            for value in rest:
                state += value

        return values, step

    def advance(
        self, u0: np.ndarray, noise: np.ndarray, store: dict | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One step of h from ``u0`` over the window whose prepared noise is
        ``noise``: u0 plus the sum of the plan's terms at h, and the
        (nodes, ..., N) value array of the call, each node's end value by
        slot (see :meth:`nonfinite`), both new.  ``u0`` is one state, (N,),
        or one per path, (paths, N), and ``noise`` the window of each, (S,
        ·) or (paths, S, ·) for any S of at least h / h_fine: the nodes
        build their rows and trajectories over all S rows and contract the
        first h / h_fine.

        ``store`` is the dict of this window and start state, shared by the
        plans of any h and any scheme stepped on it: it holds each summed
        term's rows under the term, read-only.  A sum node takes its rows
        from there, or builds them and leaves them there, so each term's
        rows are built once, and the trajectories that it reads with them
        are made once and kept by no one.  Without a store, the step keeps
        its rows in a fresh store of its own."""
        values, step = self.stepper(u0.shape)
        state = np.empty(u0.shape)
        step(u0, noise, {} if store is None else store, state)
        return state, values

    def nonfinite(self, values: np.ndarray, row: int) -> NonfiniteValueError:
        """The error for the path in ``row`` of a batch (row 0 of a single
        path) whose state is not finite: names its first non-finite term,
        from the value array of the step (see :meth:`advance`), where a
        dropped node's slot holds nothing."""
        for name, slot in zip(self.names, self.term_slots):
            if self.steps[slot] is None:
                continue
            if not np.isfinite(np.atleast_2d(values[slot])[row]).all():
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


def _windows(plan: BoundPlan, noise: np.ndarray, steps: int):
    """The prepared noise of each of ``steps`` consecutive steps of the
    plan's h: view n of the leading axis is step n's window of h / h_fine
    rows, with no copies."""
    blocks = noise[..., : steps * plan.substeps, :]
    blocks = blocks.reshape(blocks.shape[:-2] + (steps, plan.substeps, blocks.shape[-1]))
    return blocks.swapaxes(-3, 0)


def _run(
    plan: BoundPlan,
    states: np.ndarray,
    noise: np.ndarray,
    steps: int,
    record_steps: tuple[int, ...] = (),
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The stepping loop: advances the states through ``steps``
    consecutive h-long row blocks of the prepared noise ``noise``, which
    may run on past the last block, handing the plan one block per step.
    The shapes are those of :meth:`BoundPlan.advance`: a single path runs
    unbatched, which spares it the cost of broadcasting against the (N,)
    mesh tables.

    The loop steps in place.  The run allocates once a value array for the
    plan's node steps (see :meth:`BoundPlan.stepper`) and two state
    buffers, and each step writes into the buffer that the step before did
    not write, so the caller's ``states`` are only read.  A plan that reads
    no trajectory steps without a store, on scratch rows, and allocates no
    array of its own per step; one that reads keeps its rows in a fresh
    store per step.

    Returns the end states, one of the run's buffers, and copies of the
    states after each step count in ``record_steps`` (the caller's states
    for 0, the end states themselves for ``steps``).  A path whose state
    goes non-finite runs on, non-finite; the others never see it.  The loop
    runs only the plan's arithmetic and no test: every step writes u0 plus
    its terms, and IEEE addition never turns an inf or a nan finite, so a
    path that goes non-finite at some step is non-finite at the end, where
    a caller that needs the failing term tests the end states and calls
    :func:`_first_failures`.
    """
    recorded = {0: states} if 0 in record_steps else {}
    step = plan.stepper(states.shape)[1]
    buffers = (np.empty(states.shape), np.empty(states.shape))
    reads = plan.reads
    # A blow-up surfaces in the end states, not as warnings from the array
    # operations that produced the inf or nan.
    with np.errstate(over="ignore", invalid="ignore"):
        for n, window in enumerate(_windows(plan, noise, steps), 1):
            out = buffers[n & 1]
            step(states, window, {} if reads else None, out)
            states = out
            if n in record_steps:
                recorded[n] = out if n == steps else out.copy()
    return states, recorded


def _first_failures(
    plan: BoundPlan, start: np.ndarray, noise: np.ndarray, end: np.ndarray, steps: int
) -> dict[int, NonfiniteValueError]:
    """Keyed by row (0 for a single path), the error naming the first
    non-finite term of each row of the ``end`` states of a :func:`_run`
    from ``start`` that is not finite, at its first non-finite step.
    Replays the run of those rows alone, step by step through
    :meth:`BoundPlan.advance`, which runs the run's node steps, and names
    the term from each step's value array: a batch's products are stacks
    of one-path products, and a step's rows in a store have the bytes of
    its scratch rows, so each row replays with the bytes it ran with."""
    rows = (0,)
    if end.ndim > 1:
        rows = np.flatnonzero(~np.isfinite(end).all(axis=-1))
        start, noise = start[rows], noise[rows]
    failed: dict[int, NonfiniteValueError] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for window in _windows(plan, noise, steps):
            start, values = plan.advance(start, window)
            for row in np.flatnonzero(~np.isfinite(start).all(axis=-1)):
                failed.setdefault(int(rows[row]), plan.nonfinite(values, row))
    return failed


def _one_step(
    plan: BoundPlan, u0: np.ndarray, noise: np.ndarray, store: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`BoundPlan.advance`, one step of the plan's h from ``u0`` over
    the prepared window ``noise``, with no numpy warning: a blow-up leaves
    a non-finite state, and one confined to rows past h / h_fine leaves the
    state finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return plan.advance(u0, noise, store)


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
    """The path's substeps in [0, span].  The state and the path fit the
    model, the path provides those substeps, and ``message`` (formatted
    with span and h_fine) is the error when their count is not whole;
    ``workspace`` is None or ``model.workspace()``, the grid the model's
    diffusion owns, and any other grid is an :class:`EngineError`."""
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
    """The one-step approximation at time h from u0 on the first h / h_fine
    increments of the path, as the result's state.

    The plan of h is handed the path's whole prepared root window and the
    path's store for the model and start state: its nodes build their rows
    over the window once and keep them there (see :class:`NoisePath`); a
    step of any h on the path or its prefixes then contracts the first
    h / h_fine of them.  A step past the path raises
    :class:`MeshMismatchError` before the plan is bound or looked up in
    the cache of bound plans, a non-finite state
    :class:`NonfiniteValueError` naming the first non-finite term, and
    ``workspace`` is None or ``model.workspace()``."""
    _check_inputs(u0, path, model, workspace, h, _STEP_MESSAGE)
    plan = _plan(scheme, model, h, path.h_fine)
    noise = path._prepared_noise(plan)
    store = path._window.stores.setdefault((model, u0.coeffs.tobytes()), {})
    state, values = _one_step(plan, u0.coeffs, noise, store)
    if not np.isfinite(state).all():
        raise plan.nonfinite(values, 0)
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
    h = h_fine, on the first t_end / h_fine rows of the path's prepared
    root window (see :class:`NoisePath`).  A coarse run of the scheme at
    h_fine is therefore bitwise identical to this reference.
    ``record_substeps`` requests snapshots after the given substep counts;
    a t_end off the fine mesh or past the path, or a count outside
    0..t_end / h_fine, raises :class:`MeshMismatchError`.  A substep whose
    result is not finite raises :class:`NonfiniteValueError` naming its
    first non-finite term.
    """
    steps = _check_inputs(
        u0, path, model, workspace, t_end, "t_end {} is not a whole number of steps of h = {}"
    )
    outside = sorted(n for n in record_substeps if not 0 <= n <= steps)
    if outside:
        raise MeshMismatchError(
            f"cannot record after {outside} steps: [0, {t_end}] has {steps}"
        )
    plan = _plan(_REFERENCE_SCHEME, model, path.h_fine, path.h_fine)
    noise = path._prepared_noise(plan)
    state, recorded = _run(plan, u0.coeffs, noise, steps, record_substeps)
    if not np.isfinite(state).all():
        raise _first_failures(plan, u0.coeffs, noise, state, steps)[0]
    return SpectralState(state), {n: SpectralState(s) for n, s in recorded.items()}
