"""Scheme engine: compilation, stepping, reference coupling, noise streams."""

import warnings

import numpy as np
import pytest

from spde_taylor.engine import (
    BUILTIN_WOODS,
    BoundPlan,
    EngineError,
    MeshMismatchError,
    NoisePath,
    NonfiniteValueError,
    NotImplementableError,
    UnsupportedDerivativeOrderError,
    _mesh_tables,
    builtin_scheme,
    compile_scheme,
    multi_step_solve,
    path_generator,
    reference_solve,
    step,
)
from spde_taylor.models import (
    GridWorkspace,
    ModelSpec,
    SpectralState,
    ZeroDrift,
    apply_semigroup,
    convolution_variances,
    dirichlet_eigenvalues,
    heat_additive_model,
    heat_multiplicative_model,
    initial_condition,
)
from spde_taylor.terms import I0, integral, phi_wood, psi, render_compact
from spde_taylor.trees import NodeLabel, initial_wood

L = {name.value: name for name in NodeLabel}

H_FINE = 2.0**-10


@pytest.fixture(scope="module")
def mult():
    return heat_multiplicative_model(modes=32, noise_modes=32)


@pytest.fixture(scope="module")
def additive():
    return heat_additive_model(modes=8, noise_modes=8)


def draw_path(model, substeps, seed=0, index=0, h_fine=H_FINE):
    rng = path_generator(seed, index)
    return NoisePath.draw(rng, substeps, model.noise_modes, h_fine)


class TestCompile:
    def test_plan_terms_of_builtins(self):
        assert builtin_scheme("exp-euler").describe() == "I^0_0 + I^0_1 + I^0_2"
        assert (
            builtin_scheme("milstein-b0").describe()
            == "I^0_0 + I^0_1 + I^0_2 + I^1_2[I^0_0]"
        )
        assert (
            builtin_scheme("full-2nd").describe()
            == "I^0_0 + I^0_1 + I^0_2 + I^1_2[I^0_0] + I^1_2[I^0_2]"
        )

    def test_required_orders(self):
        assert builtin_scheme("exp-euler").required_orders == {
            "F": frozenset({0}),
            "B": frozenset({0}),
        }
        assert builtin_scheme("full-2nd").required_orders == {
            "F": frozenset({0}),
            "B": frozenset({0, 1}),
        }
        assert builtin_scheme("taylor-delta").required_orders == {
            "F": frozenset(),
            "B": frozenset(),
        }

    def test_starred_term_not_implementable(self):
        with pytest.raises(NotImplementableError, match="I\\^0_1\\*"):
            compile_scheme(I0(L["1*"]))
        with pytest.raises(NotImplementableError):
            compile_scheme(phi_wood(initial_wood()))

    def test_unknown_builtin(self):
        with pytest.raises(EngineError, match="unknown scheme"):
            builtin_scheme("heun")

    def test_unsupported_derivative_order(self, mult):
        class FirstOrderOnly:
            max_order = 0

            def rows_against_noise(self, *args):
                return None

        limited = ModelSpec(
            name="limited",
            eigenvalues=dirichlet_eigenvalues(8),
            drift=ZeroDrift(),
            diffusion=FirstOrderOnly(),
            gamma=0.245,
            delta=0.25,
            noise_modes=8,
            initial=initial_condition("first_mode", 8),
        )
        scheme = compile_scheme(psi(BUILTIN_WOODS["full-2nd"]))
        h = 4 * H_FINE
        with pytest.raises(UnsupportedDerivativeOrderError):
            step(scheme, limited.initial, h, draw_path(limited, 4), limited)
        step(scheme, mult.initial, h, draw_path(mult, 4), mult)  # full model runs it


class TestNoisePath:
    def test_increment_variance(self):
        path = NoisePath.draw(path_generator(3, 0), 4096, 16, H_FINE)
        var = path.increments.var()
        assert var == pytest.approx(H_FINE, rel=0.05)
        assert abs(path.increments.mean()) < 3 * np.sqrt(H_FINE / (4096 * 16))

    def test_streams_reproducible_and_distinct(self):
        a = NoisePath.draw(path_generator(9, 4), 8, 3, H_FINE)
        b = NoisePath.draw(path_generator(9, 4), 8, 3, H_FINE)
        c = NoisePath.draw(path_generator(9, 5), 8, 3, H_FINE)
        np.testing.assert_array_equal(a.increments, b.increments)
        assert not np.array_equal(a.increments, c.increments)

    def test_prefix_and_coarsen(self):
        path = NoisePath.draw(path_generator(1, 0), 8, 2, H_FINE)
        assert path.prefix(4).substeps == 4
        coarse = path.coarsened(4)
        assert coarse.substeps == 2
        assert coarse.h_fine == 4 * H_FINE
        np.testing.assert_allclose(
            coarse.increments[0], path.increments[:4].sum(axis=0)
        )

    def test_only_writeable_arrays_are_copied(self):
        path = NoisePath.draw(path_generator(1, 0), 8, 2, H_FINE)
        head = path.prefix(4)
        assert np.shares_memory(head.increments, path.increments)
        assert not path.increments.flags.writeable
        assert not head.increments.flags.writeable
        own = np.ones((4, 2))
        copied = NoisePath(own, h_fine=H_FINE)
        assert not np.shares_memory(copied.increments, own)
        assert own.flags.writeable and not copied.increments.flags.writeable
        own[:] = 7.0
        np.testing.assert_array_equal(copied.increments, np.ones((4, 2)))

    def test_prefix_too_long(self):
        path = NoisePath.draw(path_generator(1, 0), 8, 2, H_FINE)
        with pytest.raises(MeshMismatchError):
            path.prefix(9)

    def test_coarsen_misaligned(self):
        path = NoisePath.draw(path_generator(1, 0), 9, 2, H_FINE)
        with pytest.raises(MeshMismatchError):
            path.coarsened(4)


class TestStep:
    def test_taylor_delta_is_the_semigroup_flow(self, mult):
        u0 = mult.initial
        h = 16 * H_FINE
        path = draw_path(mult, 16)
        got = step(builtin_scheme("taylor-delta"), u0, h, path, mult).state
        want = apply_semigroup(u0, h, mult)
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("name", sorted(BUILTIN_WOODS))
    def test_zero_noise_collapses_to_semigroup(self, name, mult):
        # With F = 0 every stochastic term vanishes on the zero path.
        u0 = mult.initial
        h = 8 * H_FINE
        silent = NoisePath(np.zeros((8, mult.noise_modes)), h_fine=H_FINE)
        got = step(builtin_scheme(name), u0, h, silent, mult).state
        want = apply_semigroup(u0, h, mult)
        np.testing.assert_allclose(got.coeffs, want.coeffs, rtol=1e-13, atol=1e-16)

    def test_deterministic_given_seed(self, mult):
        u0 = mult.initial
        h = 16 * H_FINE
        results = []
        for _ in range(2):
            path = draw_path(mult, 16, seed=7, index=3)
            out = step(builtin_scheme("full-2nd"), u0, h, path, mult)
            results.append(out.state.coeffs)
        np.testing.assert_array_equal(results[0], results[1])

    def test_diagnostics_report_each_term(self, mult):
        path = draw_path(mult, 8)
        out = step(builtin_scheme("milstein-b0"), mult.initial, 8 * H_FINE, path, mult)
        assert set(out.diagnostics) == {"I^0_0", "I^0_1", "I^0_2", "I^1_2[I^0_0]"}
        assert all(np.isfinite(v) for v in out.diagnostics.values())

    def test_mesh_mismatch(self, mult):
        path = draw_path(mult, 8)
        with pytest.raises(MeshMismatchError):
            step(builtin_scheme("exp-euler"), mult.initial, 8.3 * H_FINE, path, mult)
        with pytest.raises(MeshMismatchError):
            step(builtin_scheme("exp-euler"), mult.initial, 16 * H_FINE, path, mult)

    def test_nonfinite_detection_names_the_term(self, mult):
        wild = NoisePath(
            np.full((4, mult.noise_modes), 1e308), h_fine=H_FINE
        )
        with pytest.raises(NonfiniteValueError) as info:
            step(builtin_scheme("exp-euler"), mult.initial, 4 * H_FINE, wild, mult)
        assert "I^0_2" in str(info.value)

    @pytest.mark.parametrize("name", sorted(BUILTIN_WOODS))
    def test_zero_step_limit(self, name, mult):
        # A single-substep step stays within h_fine^delta of the start.
        h_fine = 2.0**-12
        path = NoisePath.draw(
            path_generator(31, 0), 1, mult.noise_modes, h_fine
        )
        out = step(builtin_scheme(name), mult.initial, h_fine, path, mult).state
        gap = np.linalg.norm(out.coeffs - mult.initial.coeffs)
        assert gap <= h_fine**mult.delta

    def test_additive_step_is_affine_in_the_noise(self, additive):
        u0 = additive.initial
        h = 8 * H_FINE
        scheme = builtin_scheme("exp-euler")
        a = draw_path(additive, 8, seed=1, index=0)
        b = draw_path(additive, 8, seed=1, index=1)
        both = NoisePath(a.increments + b.increments, h_fine=H_FINE)
        zero = NoisePath(np.zeros_like(a.increments), h_fine=H_FINE)
        base = step(scheme, u0, h, zero, additive).state.coeffs
        out_a = step(scheme, u0, h, a, additive).state.coeffs
        out_b = step(scheme, u0, h, b, additive).state.coeffs
        out_ab = step(scheme, u0, h, both, additive).state.coeffs
        np.testing.assert_allclose(
            out_ab - base, (out_a - base) + (out_b - base), atol=1e-13
        )

    def test_one_step_convolution_variance_additive(self, additive):
        # Mode variances of the stochastic term against the Ito isometry.
        # The substep mesh must resolve 1/lambda_max or the left-point sum
        # biases the high-mode variances below the closed form.
        h = 2.0**-4
        h_fine = 2.0**-16
        substeps = int(h / h_fine)
        zero = SpectralState(np.zeros(additive.modes))
        scheme = builtin_scheme("exp-euler-nodrift")
        n = 1500
        samples = np.empty((n, additive.modes))
        for p in range(n):
            path = NoisePath.draw(
                path_generator(17, p), substeps, additive.noise_modes, h_fine
            )
            samples[p] = step(scheme, zero, h, path, additive).state.coeffs
        var = samples.var(axis=0, ddof=1)
        expected = convolution_variances(additive, h)
        stderr = var * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(var - expected) < 4.0 * stderr)


class TestReference:
    def test_zero_noise_is_pure_decay(self, mult):
        u0 = mult.initial
        silent = NoisePath(np.zeros((32, mult.noise_modes)), h_fine=H_FINE)
        out, _ = reference_solve(u0, 32 * H_FINE, silent, mult)
        want = apply_semigroup(u0, 32 * H_FINE, mult)
        np.testing.assert_allclose(out.coeffs, want.coeffs, rtol=1e-12, atol=1e-16)

    def test_multi_step_exponential_euler_matches_reference_bitwise(self, mult):
        # The reference IS the fine-mesh iteration of this scheme, so a
        # coupled run at h = h_fine must agree to the last bit.
        u0 = mult.initial
        path = draw_path(mult, 64, seed=21)
        t_end = 64 * H_FINE
        ref, _ = reference_solve(u0, t_end, path, mult)
        stepped = multi_step_solve(
            builtin_scheme("exp-euler"), u0, t_end, H_FINE, path, mult
        )
        np.testing.assert_array_equal(ref.coeffs, stepped.coeffs)

    @pytest.mark.parametrize("name", sorted(BUILTIN_WOODS))
    def test_single_step_run_equals_step_bitwise(self, name, mult):
        # The one-step order study runs each ladder entry as a multi-step
        # run of horizon h; that must reproduce step() to the last bit.
        scheme = builtin_scheme(name)
        u0 = mult.initial
        path = draw_path(mult, 256, seed=9)
        for substeps in (1, 16, 256):
            h = substeps * H_FINE
            run = multi_step_solve(scheme, u0, h, h, path, mult)
            single = step(scheme, u0, h, path, mult).state
            assert run.coeffs.tobytes() == single.coeffs.tobytes()

    def test_multi_step_rejects_partial_last_step(self, mult):
        # 4 substeps do not split into steps of 3: no silent truncation.
        path = draw_path(mult, 8)
        with pytest.raises(MeshMismatchError, match="t_end .* whole number of steps of h"):
            multi_step_solve(
                builtin_scheme("exp-euler"), mult.initial, 4 * H_FINE, 3 * H_FINE,
                path, mult,
            )

    def test_blow_up_raises_nonfinite(self, mult):
        # Increments of order 1e198 overflow the state within two substeps,
        # and the iterated term of one full-2nd step.  The blow-up surfaces
        # as the error alone, with no numpy warning on the way.
        path = draw_path(mult, 8, seed=4)
        wild = NoisePath(path.increments * 1e200, h_fine=H_FINE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonfiniteValueError) as stepped:
                step(builtin_scheme("full-2nd"), mult.initial, 8 * H_FINE, wild, mult)
            with pytest.raises(NonfiniteValueError) as info:
                reference_solve(mult.initial, 8 * H_FINE, wild, mult)
        assert stepped.value.term == "I^1_2[I^0_2]"
        assert info.value.term == "I^0_2"

    def test_reference_is_the_exponential_euler_recurrence(self):
        # Pins the reference's arithmetic: the same products, summed in the
        # same order, give the same bytes.
        model = heat_multiplicative_model(64, 64)
        ws = model.workspace()
        h_fine = 2.0**-12
        path = NoisePath.draw(path_generator(2024, 0), 64, 64, h_fine)
        lam = model.eigenvalues
        flow, weight = np.expm1(-lam * h_fine), np.exp(-lam[:, None] * h_fine)
        u = model.initial.coeffs
        for row in ws.to_grid(path.increments):
            rows = ws.to_coeffs(ws.to_grid(u) * row[None, :], model.modes)
            drift = np.zeros(model.modes)
            u = u + flow * u + drift + np.einsum("ns,sn->n", weight, rows)
        got, _ = reference_solve(model.initial, 64 * h_fine, path, model, ws)
        assert got.coeffs.tobytes() == u.tobytes()

    def test_band_check_rejects_a_coarse_grid(self):
        # 48 grid points resolve products of the 16 noise modes but not of
        # the 32 state modes.
        model = heat_multiplicative_model(32, 16)
        coarse = GridWorkspace(grid_points=48)
        path = draw_path(model, 8)
        message = "48 grid points cannot resolve products of 32-mode functions"
        with pytest.raises(ValueError, match=message):
            step(builtin_scheme("exp-euler"), model.initial, 8 * H_FINE, path, model, coarse)
        with pytest.raises(ValueError, match=message):
            reference_solve(model.initial, 8 * H_FINE, path, model, coarse)

    def test_recording_matches_prefix_runs(self, mult):
        u0 = mult.initial
        path = draw_path(mult, 32, seed=2)
        _, recorded = reference_solve(
            u0, 32 * H_FINE, path, mult, record_substeps=(8, 32)
        )
        direct, _ = reference_solve(u0, 8 * H_FINE, path.prefix(8), mult)
        np.testing.assert_array_equal(recorded[8].coeffs, direct.coeffs)
        assert set(recorded) == {8, 32}

    def test_recording_past_the_window_is_rejected(self, mult):
        # A snapshot after 16 substeps of an 8-substep run cannot exist.
        path = draw_path(mult, 8)
        with pytest.raises(MeshMismatchError, match="record after \\[16\\] steps"):
            reference_solve(
                mult.initial, 8 * H_FINE, path, mult, record_substeps=(4, 16)
            )

    def test_self_refinement_rate(self):
        # Halving the fine mesh moves the endpoint by about h_fine^(1/4)
        # in L2, measured on coupled paths.
        spec = heat_multiplicative_model(48, 48)
        ws = spec.workspace()
        u0 = spec.initial
        t_end = 2.0**-4
        h_fine = 2.0**-12
        coarse_sq, fine_sq = [], []
        for p in range(12):
            fine_path = NoisePath.draw(
                path_generator(5, p), int(t_end / h_fine), 48, h_fine
            )
            x_f, _ = reference_solve(u0, t_end, fine_path, spec, ws)
            x_m, _ = reference_solve(u0, t_end, fine_path.coarsened(2), spec, ws)
            x_c, _ = reference_solve(u0, t_end, fine_path.coarsened(4), spec, ws)
            coarse_sq.append(np.sum((x_c.coeffs - x_m.coeffs) ** 2))
            fine_sq.append(np.sum((x_m.coeffs - x_f.coeffs) ** 2))
        ratio = np.sqrt(np.mean(coarse_sq) / np.mean(fine_sq))
        assert 2**0.05 < ratio < 2**0.5


def test_mesh_tables_are_keyed_by_eigenvalues_and_read_only():
    # heat-mult at N = 16 and N = 64 and heat-add at N = 16 bind the same
    # (h, h_fine); interleaved through one table cache, each must give the
    # bytes it gives alone.
    h = 16 * H_FINE
    specs = [
        heat_multiplicative_model(16, 16),
        heat_multiplicative_model(64, 64),
        heat_additive_model(16, 16),
    ]
    paths = [draw_path(spec, 16, seed=3) for spec in specs]
    scheme = builtin_scheme("full-2nd")

    def run(i):
        out = step(scheme, specs[i].initial, h, paths[i], specs[i])
        return out.state.coeffs.tobytes()

    alone = []
    for i in range(3):
        _mesh_tables.cache_clear()
        alone.append(run(i))
    _mesh_tables.cache_clear()
    for i in (0, 1, 2, 1, 0, 2, 2, 1, 0):
        assert run(i) == alone[i]
    plans = [BoundPlan(scheme, s, h, H_FINE, s.workspace()) for s in specs]
    assert plans[0].tables is plans[2].tables  # equal eigenvalues
    assert plans[0].tables is not plans[1].tables
    for plan in plans:
        tables = plan.tables
        for table in (
            tables.times, tables.zeros, tables.decay_fine, tables.end_weights, tables.flow,
            tables.drift_flow, tables.flow_at, tables.drift_flow_at,
        ):
            assert not table.flags.writeable


def test_custom_wood_compiles_and_steps(mult):
    # A hand-built computable plan: semigroup term plus Milstein correction.
    expr = integral(1, L["2"], (I0(L["0"]),))
    scheme = compile_scheme(expr)
    path = draw_path(mult, 8)
    out = step(scheme, mult.initial, 8 * H_FINE, path, mult)
    assert render_compact(expr) in out.diagnostics


class ConstantDrift:
    """F(v) = f0 for a fixed vector; all derivatives vanish."""

    def __init__(self, f0):
        self.f0 = np.asarray(f0, dtype=float)

    def value(self, base):
        return self.f0

    def derivative_rows(self, order, base, arg_rows):
        return None


class DiagonalLinearDrift:
    """F(v) = d * v per mode; the derivative applies the same weights."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)

    def value(self, base):
        return self.weights * base

    def derivative_rows(self, order, base, arg_rows):
        if order != 1:
            return None
        return self.weights[None, :] * np.asarray(arg_rows[0])


def drift_model(drift, modes=8):
    return ModelSpec(
        name="drift-test",
        eigenvalues=dirichlet_eigenvalues(modes),
        drift=drift,
        diffusion=heat_additive_model(modes, modes).diffusion,
        gamma=0.5,
        delta=0.5,
        noise_modes=modes,
        initial=initial_condition("first_mode", modes),
    )


def test_frozen_drift_convolution_is_exact():
    # With constant drift and no noise, exponential Euler integrates
    # dU = AU + f0 exactly: U(h) = e^{Ah}u0 + A^{-1}(e^{Ah} - I) f0.
    modes = 8
    rng = np.random.default_rng(8)
    model = drift_model(ConstantDrift(rng.standard_normal(modes)), modes)
    u0 = model.initial
    h = 16 * H_FINE
    silent = NoisePath(np.zeros((16, modes)), h_fine=H_FINE)
    got = step(builtin_scheme("exp-euler"), u0, h, silent, model).state.coeffs
    lam = model.eigenvalues
    want = np.exp(-lam * h) * u0.coeffs - np.expm1(-lam * h) / lam * model.drift.f0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-16)


def test_first_order_drift_term_matches_quadrature():
    # I^1_1[I^0_0] with diagonal linear drift has the closed form
    # d * u0 * (h e^{-lh} - (1 - e^{-lh})/l) per mode; the engine's
    # left-point Riemann sum must agree to O(h_fine).
    modes = 6
    weights = np.linspace(0.5, 2.0, modes)
    model = drift_model(DiagonalLinearDrift(weights), modes)
    u0 = SpectralState(np.linspace(1.0, 0.4, modes))
    expr = integral(1, L["1"], (I0(L["0"]),))
    scheme = compile_scheme(expr)
    # Left-point bias per mode is about lambda*h_fine/2; keep it ~1%.
    h_fine = 2.0**-14
    substeps = 256
    h = substeps * h_fine
    silent = NoisePath(np.zeros((substeps, modes)), h_fine=h_fine)
    got = step(scheme, u0, h, silent, model).state.coeffs - u0.coeffs
    lam = model.eigenvalues
    want = weights * u0.coeffs * (
        h * np.exp(-lam * h) + np.expm1(-lam * h) / lam
    )
    np.testing.assert_allclose(got, want, rtol=2e-2, atol=1e-12)
