"""Acceptance criteria, one test (or parametrized case) per criterion.

Each case prints a PASS/FAIL line before asserting, so a red criterion still
leaves a readable record in the log.  Criterion 3 runs the full-size order
experiment (N = M = 64, fine mesh 2^-12, ladder 2^-4..2^-8, 200 paths,
fixed seed 2024) as one study of its four schemes, whose reports the four
cases share.
"""

import random
import time

import numpy as np
import pytest

from spde_taylor.engine import NoisePath, builtin_scheme, path_generator, step
from spde_taylor.harness import ExperimentConfig, render_csv, run_convergence, run_study
from spde_taylor.models import (
    GridWorkspace,
    SpectralState,
    apply_semigroup,
    convolution_variances,
    heat_additive_model,
    heat_multiplicative_model,
    smoothed_diffusion_hs_norm,
)
from spde_taylor.terms import contains_starred, expansion_matches_rewrite, psi
from spde_taylor.trees import (
    ActiveNode,
    active_nodes,
    expand,
    initial_wood,
    order_wood,
    reachable_woods,
)

ACCEPTANCE_SEED = 2024


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


def worked_woods():
    w0 = initial_wood()
    w1 = expand(w0, ActiveNode(3, 1))
    w2 = expand(w1, ActiveNode(2, 1))
    w3 = expand(w2, ActiveNode(4, 1))
    w4 = expand(w3, ActiveNode(6, 1))
    w5 = expand(w4, ActiveNode(6, 2))
    return [w0, w1, w2, w3, w4, w5]


def random_wood(rnd: random.Random, depth: int):
    wood = initial_wood()
    for _ in range(depth):
        wood = expand(wood, rnd.choice(active_nodes(wood)))
    return wood


def test_criterion_1_symbolic_golden_suite():
    """Active-node sets, symbolic orders, and psi(w3) = psi(w4), under 1 s."""
    started = time.perf_counter()
    w0, w1, w2, w3, w4, w5 = worked_woods()
    expected_nodes = {
        1: {(2, 1), (4, 1), (5, 1), (5, 2), (6, 1), (6, 2)},
        2: {(4, 1), (5, 1), (5, 2), (6, 1), (6, 2),
            (7, 1), (8, 1), (8, 2), (9, 1), (9, 2)},
        3: {(5, 1), (5, 2), (6, 1), (6, 2), (7, 1), (8, 1), (8, 2), (9, 1),
            (9, 2), (10, 1), (11, 1), (11, 3), (12, 1), (12, 3)},
        4: {(5, 1), (5, 2), (6, 2), (7, 1), (8, 1), (8, 2), (9, 1), (9, 2),
            (10, 1), (11, 1), (11, 3), (12, 1), (12, 3), (13, 1), (13, 2),
            (14, 1), (14, 2), (14, 3), (15, 1), (15, 2), (15, 3)},
        5: {(5, 1), (5, 2), (7, 1), (8, 1), (8, 2), (9, 1), (9, 2), (10, 1),
            (11, 1), (11, 3), (12, 1), (12, 3), (13, 1), (13, 2), (14, 1),
            (14, 2), (14, 3), (15, 1), (15, 2), (15, 3), (16, 2), (17, 2),
            (17, 3), (18, 2), (18, 3)},
    }
    woods = [w0, w1, w2, w3, w4, w5]
    nodes_ok = all(
        {tuple(a) for a in active_nodes(woods[k])} == expected_nodes[k]
        for k in expected_nodes
    )
    # Orders as minimal candidate sets: delta; delta+min(gamma,delta) twice;
    # delta+min(2gamma,delta) twice; delta+2min(gamma,delta).
    expected_orders = [
        frozenset({(0, 0, 1)}),
        frozenset({(0, 1, 1), (0, 0, 2)}),
        frozenset({(0, 1, 1), (0, 0, 2)}),
        frozenset({(0, 2, 1), (0, 0, 2)}),
        frozenset({(0, 2, 1), (0, 0, 2)}),
        frozenset({(0, 2, 1), (0, 0, 3)}),
    ]
    orders_ok = all(
        order_wood(w).minimal == want for w, want in zip(woods, expected_orders)
    )
    psi_ok = psi(w3) == psi(w4)
    elapsed = time.perf_counter() - started
    ok = nodes_ok and orders_ok and psi_ok and elapsed < 1.0
    report("1 symbolic golden suite", ok, f"{elapsed:.3f}s")
    assert nodes_ok and orders_ok and psi_ok
    assert elapsed < 1.0


def test_criterion_2_phi_invariance():
    """Term identity for every expansion reachable in 3 steps, plus 100
    random deeper sequences, under 30 s."""
    started = time.perf_counter()
    checks = 0
    for wood in reachable_woods(3):
        for at in active_nodes(wood):
            assert expansion_matches_rewrite(wood, at, expand(wood, at))
            checks += 1
    rnd = random.Random(ACCEPTANCE_SEED)
    for _ in range(100):
        wood = random_wood(rnd, rnd.randint(4, 6))
        at = rnd.choice(active_nodes(wood))
        assert expansion_matches_rewrite(wood, at, expand(wood, at))
        checks += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    report("2 phi-invariance", ok, f"{checks} checks, {elapsed:.1f}s")
    assert ok


HEAT_SCHEMES = ["taylor-delta", "exp-euler", "milstein-b0", "full-2nd"]


@pytest.fixture(scope="module")
def heat_study():
    """The four heat schemes' reports from one study on shared paths."""
    config = ExperimentConfig(
        model="heat-mult",
        t_end=1.0,
        fine_log2=12,
        ladder_log2=(4, 5, 6, 7, 8),
        paths=200,
        seed=ACCEPTANCE_SEED,
        r=0.005,
    )
    return dict(zip(HEAT_SCHEMES, run_study(config, HEAT_SCHEMES)))


@pytest.mark.parametrize("scheme", HEAT_SCHEMES)
def test_criterion_3_heat_equation_orders(scheme, heat_study):
    """Regression slope within [predicted - 0.10, predicted + 0.20] at the
    stated defaults."""
    result = heat_study[scheme]
    ok = result.lower_bound <= result.slope <= result.upper_bound
    report(
        f"3 heat orders [{scheme}]",
        ok,
        f"slope {result.slope:.3f}, predicted {result.predicted:.3f}, "
        f"window [{result.lower_bound:.3f}, {result.upper_bound:.3f}]",
    )
    assert ok, (
        f"{scheme}: slope {result.slope:.4f} outside "
        f"[{result.lower_bound:.4f}, {result.upper_bound:.4f}]"
    )


def test_criterion_4_additive_convolution_variances():
    """Per-mode variance of the simulated stochastic convolution matches the
    Ito isometry within 3 standard errors over 10^4 samples."""
    model = heat_additive_model(modes=8, noise_modes=8)
    h = 2.0**-4
    h_fine = 2.0**-17  # resolves 1/lambda_max so the left-point bias is tiny
    substeps = int(round(h / h_fine))
    scheme = builtin_scheme("exp-euler-nodrift")
    zero = SpectralState(np.zeros(model.modes))
    n = 10_000
    samples = np.empty((n, model.modes))
    for index in range(n):
        path = NoisePath.draw(
            path_generator(ACCEPTANCE_SEED, index), substeps,
            model.noise_modes, h_fine,
        )
        samples[index] = step(scheme, zero, h, path, model).state.coeffs
    variances = samples.var(axis=0, ddof=1)
    expected = convolution_variances(model, h)
    stderr = variances * np.sqrt(2.0 / (n - 1))
    z = (variances - expected) / stderr
    ok = bool(np.all(np.abs(z) < 3.0))
    report(
        "4 additive variance oracle", ok,
        f"max |z| = {np.abs(z).max():.2f} over {model.modes} modes",
    )
    assert ok, f"z-scores {np.round(z, 2)}"


class TestCriterion5Properties:
    """Randomized property suites, 500 cases each."""

    CASES = 500

    def test_expand_grows_by_three(self):
        rnd = random.Random(ACCEPTANCE_SEED)
        for _ in range(self.CASES):
            wood = random_wood(rnd, rnd.randint(0, 4))
            at = rnd.choice(active_nodes(wood))
            assert expand(wood, at).length == wood.length + 3
        report("5a expand length +3", True, f"{self.CASES} cases")

    def test_psi_star_freedom(self):
        rnd = random.Random(ACCEPTANCE_SEED + 1)
        for _ in range(self.CASES):
            wood = random_wood(rnd, rnd.randint(0, 5))
            assert not contains_starred(psi(wood))
        report("5b psi star-freedom", True, f"{self.CASES} cases")

    def test_parseval(self):
        rng = np.random.default_rng(ACCEPTANCE_SEED)
        worst = 0.0
        for _ in range(self.CASES):
            modes = int(rng.integers(1, 65))
            coeffs = rng.standard_normal(modes) * float(rng.uniform(0.1, 10.0))
            ws = GridWorkspace(grid_points=4 * modes)
            gap = abs(
                ws.quadrature_l2_norm(ws.to_grid(coeffs)) - np.linalg.norm(coeffs)
            )
            worst = max(worst, gap)
            assert gap < 1e-10
        report("5c Parseval", True, f"worst gap {worst:.2e}")

    def test_semigroup_composition(self):
        # Exact in the closed-form sense: both sides are products of
        # per-mode exponentials, agreeing to a few ulp.
        model = heat_multiplicative_model(modes=64, noise_modes=64)
        rng = np.random.default_rng(ACCEPTANCE_SEED + 2)
        for _ in range(self.CASES):
            state = SpectralState(rng.standard_normal(64))
            s, t = rng.uniform(0.0, 0.5, size=2)
            once = apply_semigroup(state, s + t, model)
            twice = apply_semigroup(apply_semigroup(state, s, model), t, model)
            np.testing.assert_allclose(
                twice.coeffs, once.coeffs, rtol=2e-13, atol=1e-300
            )
        report("5d semigroup composition", True, f"{self.CASES} cases")

    def test_determinism_bitwise(self):
        model = heat_multiplicative_model(modes=16, noise_modes=16)
        scheme = builtin_scheme("exp-euler")
        h_fine = 2.0**-9
        for index in range(self.CASES):
            first = NoisePath.draw(
                path_generator(ACCEPTANCE_SEED, index), 4, 16, h_fine
            )
            second = NoisePath.draw(
                path_generator(ACCEPTANCE_SEED, index), 4, 16, h_fine
            )
            np.testing.assert_array_equal(first.increments, second.increments)
            if index < 25:
                a = step(scheme, model.initial, 4 * h_fine, first, model)
                b = step(scheme, model.initial, 4 * h_fine, second, model)
                np.testing.assert_array_equal(a.state.coeffs, b.state.coeffs)
        config = ExperimentConfig(
            model="heat-mult", scheme="exp-euler-nodrift", paths=8,
            seed=ACCEPTANCE_SEED, fine_log2=9, ladder_log2=(3, 4, 5),
            modes=16, noise_modes=16,
        )
        csv_a = render_csv(run_convergence(config))
        csv_b = render_csv(run_convergence(config))
        assert csv_a.encode("utf-8") == csv_b.encode("utf-8")
        report("5e determinism byte-identical", True,
               f"{self.CASES} draws + repeated experiment")


def test_criterion_6_smoothing_exponent():
    """Log-log slope of |e^{Ah} B(v)|_HS within 0.05 of -1/4."""
    model = heat_multiplicative_model(modes=64, noise_modes=64)
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    v = SpectralState(rng.standard_normal(64))
    ladder = [2.0**-k for k in range(10, 15)]
    norms = [smoothed_diffusion_hs_norm(model, v, h) for h in ladder]
    slope = float(np.polyfit(np.log(ladder), np.log(norms), 1)[0])
    ok = abs(slope - (-0.25)) <= 0.05
    report("6 smoothing exponent", ok, f"slope {slope:.4f}")
    assert ok, f"slope {slope:.4f} not within 0.05 of -0.25"
