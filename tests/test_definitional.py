"""Every plan's term values against the formulas, on every model.

The evaluator below reads only a scheme's terms and the model's protocol,
nothing of how the engine lowers, binds or steps a plan.  It takes each
term at horizon n h_fine from the formulas of the engine's module
docstring: ``I^0_0`` and ``I^0_1`` in closed form, and ``I^k_2`` and
``I^k_1`` as sums over the substeps j < n of e^{-lambda (n - j) h_fine}
times B^(k)(u0)(args_j)(dW_j) / k! or F^(k)(u0)(args_j) h_fine / k!, where
each argument is its own term evaluated afresh at horizon j, not through
a running sum.  B is applied through the model's ``bind_rows`` on the unit
noise functions, so B(dW) is the increments times those rows.  The engine
must give each term a plan adds to its start, fused plans' too, the value
of each dropped one zero, and the end state, to rounding of the state's
scale.
"""

import dataclasses
import math

import numpy as np
import pytest
from test_engine import ConstantDrift, DiagonalLinearDrift

from spde_taylor.engine import BoundPlan, _run, compile_scheme
from spde_taylor.models import (
    ModelSpec,
    dirichlet_eigenvalues,
    heat_additive_model,
    heat_multiplicative_model,
    initial_condition,
)
from spde_taylor.terms import I0, integral, psi, render_compact, term_sum
from spde_taylor.trees import NodeLabel, reachable_woods

H_FINE = 2.0**-10
HORIZONS = (1, 2, 3, 8, 16)
N = M = 8
ZERO, ONE, TWO = NodeLabel.ZERO, NodeLabel.ONE, NodeLabel.TWO


def evaluate(term, n, u0, model, increments, memo):
    """The value of ``term`` at horizon n h_fine from ``u0`` on the first
    n rows of ``increments``, kept in ``memo`` by (term, n)."""
    if (term, n) in memo:
        return memo[term, n]
    lam, zero = model.eigenvalues, np.zeros(model.modes)
    order, args = (0, ()) if isinstance(term, I0) else (term.order, term.args)
    if term.j is ZERO:
        value = np.expm1(-lam * n * H_FINE) * u0
    elif term.j is ONE and order == 0:
        drift = model.drift.bind_value()
        value = zero if drift is None else -np.expm1(-lam * n * H_FINE) / lam * drift(u0)
    else:
        value = zero
        bound = (model.diffusion if term.j is TWO else model.drift).bind_rows(order)
        for j in range(n if bound is not None else 0):
            values = [evaluate(arg, j, u0, model, increments, memo) for arg in args]
            if term.j is TWO:
                unit = model.diffusion.prepare_noise(np.eye(model.noise_modes))
                rows = bound(u0, [np.broadcast_to(v, (len(unit), len(v))) for v in values], unit)
                integrand = increments[j] @ rows
            else:
                integrand = bound(u0, [v[None, :] for v in values])[0] * H_FINE
            value = value + np.exp(-lam * (n - j) * H_FINE) * integrand / math.factorial(order)
    memo[term, n] = value
    return value


class SquareDrift:
    """A test double: F(v) = d v^2 per mode, so F'(v)(a) = 2 d v a,
    F''(v)(a, b) = 2 d a b and F''' = 0."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)

    def bind_value(self):
        return lambda base: self.weights * base * base

    def bind_rows(self, order):
        if order > 2:
            return None

        def rows(base, arg_rows):
            value = (1.0, 2.0, 2.0)[order] * self.weights * base[..., None, :] ** (2 - order)
            for arg in arg_rows:
                value = value * arg
            return value

        return rows


class SquareDiffusion:
    """A test double: B(v)(w) = v^2 w per mode on the first min(N, M)
    modes, so B'(v)(a)(w) = 2 v a w, B''(v)(a, b)(w) = 2 a b w and B''' = 0;
    it fuses no step."""

    def __init__(self, modes, noise_modes):
        self.modes, self.noise_modes = modes, noise_modes

    def prepare_noise(self, noise_rows):
        return np.asarray(noise_rows, dtype=float)

    def bind_rows(self, order):
        if order > 2:
            return None
        k = min(self.modes, self.noise_modes)

        def rows(base, arg_rows, noise):
            out = np.zeros(noise.shape[:-1] + (self.modes,))
            value = (1.0, 2.0, 2.0)[order] * base[..., None, :k] ** (2 - order) * noise[..., :k]
            for arg in arg_rows:
                value = value * arg[..., :k]
            out[..., :k] = value
            return out

        return rows


def square_model():
    return ModelSpec(
        name="square-test", eigenvalues=dirichlet_eigenvalues(N),
        drift=SquareDrift(np.linspace(0.5, 2.0, N)), diffusion=SquareDiffusion(N, M),
        gamma=0.5, delta=0.5, noise_modes=M, initial=initial_condition("first_mode", N),
    )


def with_drift(drift):
    return lambda: dataclasses.replace(heat_multiplicative_model(N, M), drift=drift)


MODELS = {
    "heat-mult": lambda: heat_multiplicative_model(N, M),
    "heat-add": lambda: heat_additive_model(N, M),
    "heat-mult-linear-drift": with_drift(DiagonalLinearDrift(np.linspace(0.5, 2.0, N))),
    "heat-mult-constant-drift": with_drift(ConstantDrift(np.linspace(1.0, -1.0, N))),
    "square": square_model,
}

NESTED = [  # plans nested three deep, and a second order of nested arguments
    integral(1, TWO, (integral(1, TWO, (I0(TWO),)),)),
    integral(1, ONE, (integral(1, TWO, (I0(ONE),)),)),
    integral(2, TWO, (I0(TWO), integral(1, TWO, (I0(ZERO),)))),
]
#: The 14 distinct plans of the woods three expansions deep, and the nested ones.
SCHEMES = sorted(
    {compile_scheme(psi(wood)) for wood in reachable_woods(3)}, key=lambda s: s.describe()
) + [compile_scheme(term_sum([I0(ZERO), term])) for term in NESTED]


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_every_plan_steps_as_the_formulas(model_name):
    # Each term that a plan adds to its start, zero for a dropped term but
    # the I^0_0 folded into the start, and the end state of every plan, at
    # each horizon, within 1e-14 of the state's scale.  On the square model
    # the second-order terms and their 2! are checked at nonzero values.
    model = MODELS[model_name]()
    rng = np.random.default_rng(sorted(MODELS).index(model_name))
    u0 = rng.standard_normal(N)
    increments = rng.standard_normal((max(HORIZONS), M)) * math.sqrt(H_FINE)
    noise = model.diffusion.prepare_noise(increments)
    memo, nonzero = {}, set()
    for scheme in SCHEMES:
        for n in HORIZONS:
            plan = BoundPlan(scheme, model, n * H_FINE, H_FINE)
            state, _ = _run(plan, u0, noise, 1)
            values = [evaluate(t, n, u0, model, increments, memo) for t in scheme.terms]
            terms = dict(zip(map(render_compact, scheme.terms), values))
            want = u0 + sum(values)
            bound = 1e-14 * np.abs(want).max()
            assert np.abs(state - want).max() <= bound, (scheme.describe(), n)
            for name, term in plan.terms:
                value = np.empty(N)
                term(u0, noise, {}, value)
                assert np.abs(value - terms[name]).max() <= bound, (name, n)
                nonzero.update([name] if terms[name].any() else [])
            for name in terms.keys() - {name for name, _ in plan.terms}:
                assert name == "I^0_0" or not terms[name].any(), (name, n)
    if model_name == "square":
        assert {"I^2_1[I^0_0,I^0_0]", "I^2_2[I^0_0,I^0_0]"} <= nonzero
