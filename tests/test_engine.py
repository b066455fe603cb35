"""Scheme engine: compilation, stepping, reference coupling, noise streams."""

import tracemalloc
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
    _mesh_tables,
    _run,
    _solve,
    builtin_scheme,
    compile_scheme,
    path_generator,
    reference_solve,
    step,
)
from spde_taylor.models import (
    GridWorkspace,
    ModelSpec,
    SpectralState,
    apply_semigroup,
    convolution_variances,
    dirichlet_eigenvalues,
    heat_additive_model,
    heat_multiplicative_model,
    initial_condition,
)
from spde_taylor.terms import I0, integral, phi_wood
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


def chunk_increments(model, paths, substeps, seed=0):
    """The increments of paths 0..paths - 1 as one (paths, substeps, M) array."""
    return np.stack([draw_path(model, substeps, seed, i).increments for i in range(paths)])


def start_states(model, paths):
    return np.tile(model.initial.coeffs, (paths, 1))


def coarsened(path, factor):
    """The same Brownian path on a mesh ``factor`` times coarser: sums of
    consecutive increments."""
    blocks = path.increments.reshape(path.substeps // factor, factor, -1)
    return NoisePath(blocks.sum(axis=1), h_fine=path.h_fine * factor)


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
        assert builtin_scheme("exp-euler").required_orders == (
            frozenset({0}),
            frozenset({0}),
        )
        full = builtin_scheme("full-2nd").required_orders
        assert full.drift == frozenset({0})
        assert full.diffusion == frozenset({0, 1})
        assert builtin_scheme("taylor-delta").required_orders == (
            frozenset(),
            frozenset(),
        )

    def test_scheme_hashes_and_keys_a_dict(self):
        names = {builtin_scheme(name): name for name in BUILTIN_WOODS}
        assert names[builtin_scheme("exp-euler")] == "exp-euler"
        assert len(names) == len(BUILTIN_WOODS)
        assert hash(builtin_scheme("full-2nd")) == hash(builtin_scheme("full-2nd"))

    def test_starred_term_not_implementable(self):
        with pytest.raises(NotImplementableError, match="I\\^0_1\\*"):
            compile_scheme(I0(L["1*"]))
        with pytest.raises(NotImplementableError):
            compile_scheme(phi_wood(initial_wood()))

    def test_unknown_builtin(self):
        with pytest.raises(EngineError, match="unknown scheme"):
            builtin_scheme("heun")


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

    def test_prefix(self):
        path = NoisePath.draw(path_generator(1, 0), 8, 2, H_FINE)
        assert path.prefix(4).substeps == 4

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

    def test_a_short_prefix_prepares_and_keeps_the_whole_path(self):
        # The cost the docstring of NoisePath names: one step on a prefix of
        # 4 substeps prepares the path's whole window, P = 63 grid columns
        # a row against M = 16 increments at N = M = 16, and the path holds
        # it after the step: 2 MiB for 2^12 substeps.
        model = heat_multiplicative_model(16, 16)
        scheme, path = builtin_scheme("exp-euler"), draw_path(model, 2**12)
        prepared = path.substeps * model.diffusion.workspace.grid_points * 8
        step(scheme, model.initial, 4 * H_FINE, draw_path(model, 4, index=1), model)
        tracemalloc.start()
        try:
            step(scheme, model.initial, 4 * H_FINE, path.prefix(4), model)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prepared <= held <= peak < prepared + 64 * 1024


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


class TestVarianceShape:
    """Criterion 4's shape: one exp-euler-nodrift step of h = 2^-4 from zero
    over 8192 substeps of the diagonal model.  ``tests/test_numeric_digest.py``
    pins its end states."""

    H, H_FINE, SUBSTEPS = 2.0**-4, 2.0**-17, 8192

    @pytest.mark.parametrize("modes, noise_modes", [(8, 8), (8, 4), (4, 8)])
    def test_step_builds_no_window_sized_array(self, modes, noise_modes):
        # The path's increments take 256 or 512 KiB; the step reads them
        # through views, so it allocates a few KiB once the mesh tables
        # exist.
        model = heat_additive_model(modes, noise_modes)
        scheme, zero = builtin_scheme("exp-euler-nodrift"), SpectralState(np.zeros(modes))
        path = NoisePath.draw(path_generator(2024, 0), self.SUBSTEPS, noise_modes, self.H_FINE)
        step(scheme, zero, self.H, path, model)
        tracemalloc.start()
        try:
            step(scheme, zero, self.H, path, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestReference:
    def test_zero_noise_is_pure_decay(self, mult):
        u0 = mult.initial
        silent = NoisePath(np.zeros((32, mult.noise_modes)), h_fine=H_FINE)
        out, _ = reference_solve(u0, 32 * H_FINE, silent, mult)
        want = apply_semigroup(u0, 32 * H_FINE, mult)
        np.testing.assert_allclose(out.coeffs, want.coeffs, rtol=1e-12, atol=1e-16)

    def test_multi_step_exponential_euler_matches_reference_bitwise(self, mult):
        # The reference IS the fine-mesh iteration of this scheme, so a
        # coupled run of a chunk of paths at h = h_fine must agree with the
        # reference of each path to the last bit.
        increments = chunk_increments(mult, 3, 64, seed=21)
        plan = BoundPlan(builtin_scheme("exp-euler"), mult, H_FINE, H_FINE)
        states, _, failed = _run(
            plan, start_states(mult, 3), plan.prepare_noise(increments), 64
        )
        assert not failed
        for row in range(3):
            path = NoisePath(increments[row], h_fine=H_FINE)
            ref, _ = reference_solve(mult.initial, 64 * H_FINE, path, mult)
            assert states[row].tobytes() == ref.coeffs.tobytes()

    @pytest.mark.parametrize("name", sorted(BUILTIN_WOODS))
    def test_single_step_run_equals_step_bitwise(self, name, mult):
        # step() reads its rows from the prepared window of the whole drawn
        # path, as the one-step order study reads each ladder entry from the
        # prepared window of its chunk: a path gets the same bytes alone,
        # in a chunk and from step().  Noise prepared on the prefix alone
        # agrees up to rounding, since BLAS blocks a product's rows by
        # their count.
        scheme = builtin_scheme(name)
        increments = chunk_increments(mult, 3, 256, seed=9)
        for substeps in (1, 16, 256):
            plan = BoundPlan(scheme, mult, substeps * H_FINE, H_FINE)
            exact, _, _ = _run(
                plan, start_states(mult, 3), plan.prepare_noise(increments[:, :substeps]), 1
            )
            noise = plan.prepare_noise(increments)
            window = None if noise is None else noise[:, :substeps]
            shared, _, _ = _run(plan, start_states(mult, 3), window, 1)
            for row in range(3):
                path = NoisePath(increments[row], h_fine=H_FINE)
                single = step(scheme, mult.initial, substeps * H_FINE, path, mult).state
                alone = plan.prepare_noise(increments[row : row + 1])
                solo, _, _ = _run(
                    plan, start_states(mult, 1), None if alone is None else alone[:, :substeps], 1
                )
                assert shared[row].tobytes() == solo[0].tobytes()
                assert single.coeffs.tobytes() == solo[0].tobytes()
                np.testing.assert_allclose(exact[row], single.coeffs, rtol=1e-13, atol=1e-16)

    def test_blow_up_stays_in_its_row(self, mult):
        # Path 1's increments overflow the iterated term; the other paths of
        # the chunk end where they end alone.
        increments = chunk_increments(mult, 3, 16, seed=4)
        increments[1] *= 1e200
        plan = BoundPlan(builtin_scheme("full-2nd"), mult, 16 * H_FINE, H_FINE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, _, failed = _run(
                plan, start_states(mult, 3), plan.prepare_noise(increments), 1
            )
        assert set(failed) == {1}
        assert failed[1].term == "I^1_2[I^0_2]"
        for row in (0, 2):
            solo, _, alone = _run(
                plan, start_states(mult, 1), plan.prepare_noise(increments[row : row + 1]), 1
            )
            assert not alone
            assert states[row].tobytes() == solo[0].tobytes()

    def test_finite_states_whose_squares_overflow_run_on(self, additive):
        # States near 1e200 overflow the sum of squares that screens each
        # step for non-finite values; the elementwise check then finds
        # every state finite, and no path is flagged.
        increments = chunk_increments(additive, 3, 16, seed=6)
        plan = BoundPlan(builtin_scheme("exp-euler"), additive, 4 * H_FINE, H_FINE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, _, failed = _run(
                plan, start_states(additive, 3) * 1e200, plan.prepare_noise(increments), 4
            )
        assert not failed
        assert np.isfinite(states).all() and np.abs(states).max() > 1e160

    def test_nan_is_flagged_at_its_step_and_stays_in_its_row(self, mult):
        # A NaN in path 1's increments at substep 5 makes the reference's
        # sixth step non-finite; paths 0 and 2 end where they end alone.
        increments = chunk_increments(mult, 3, 8, seed=8)
        increments[1, 5, 3] = np.nan
        plan = BoundPlan(builtin_scheme("exp-euler"), mult, H_FINE, H_FINE)
        noise = plan.prepare_noise(increments)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before, _, clean = _run(plan, start_states(mult, 3), noise, 5)
            states, recorded, failed = _run(plan, start_states(mult, 3), noise, 8, (5, 6))
        assert not clean and np.isfinite(before).all()
        assert set(failed) == {1} and failed[1].term == "I^0_2"
        assert np.isfinite(recorded[5][1]).all()
        assert not np.isfinite(recorded[6][1]).any()
        for row in (0, 2):
            solo, _, alone = _run(
                plan, start_states(mult, 1), plan.prepare_noise(increments[row : row + 1]), 8
            )
            assert not alone
            assert states[row].tobytes() == solo[0].tobytes()

    def test_failures_are_named_at_each_rows_first_non_finite_step(self, mult):
        # Eight full-2nd steps of 8 substeps: path 1's increments of step 3
        # overflow the iterated term there, and a NaN in path 2's makes
        # step 6 non-finite.  From step 4 on, path 1's flow term is not
        # finite either; each error names the term of the row's first
        # non-finite step, as the run checked step by step named it.
        increments = chunk_increments(mult, 3, 64, seed=12)
        increments[1, 16:24] *= 1e200
        increments[2, 45, 0] = np.nan
        plan = BoundPlan(builtin_scheme("full-2nd"), mult, 8 * H_FINE, H_FINE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, recorded, failed = _run(
                plan, start_states(mult, 3), plan.prepare_noise(increments), 8, tuple(range(9))
            )
        assert {row: error.term for row, error in failed.items()} == {
            1: "I^1_2[I^0_2]", 2: "I^0_2",
        }
        finite = [[bool(np.isfinite(recorded[n][row]).all()) for n in range(9)] for row in range(3)]
        assert finite == [[True] * 9, [True] * 3 + [False] * 6, [True] * 6 + [False] * 3]
        assert recorded[8] is states

    def test_multi_step_rejects_partial_last_step(self, mult):
        # 4 substeps do not split into steps of 3: no silent truncation.
        path = draw_path(mult, 8)
        with pytest.raises(MeshMismatchError, match="t_end .* whole number of steps of h"):
            _solve(
                builtin_scheme("exp-euler"), mult.initial, 4 * H_FINE, 3 * H_FINE,
                path, mult, None,
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
        interpolant = ws.transforms(model.modes)[1]
        for row in ws.to_grid(path.increments):
            rows = (ws.to_grid(u) * row[None, :]) @ interpolant
            drift = np.zeros(model.modes)
            u = u + flow * u + drift + np.einsum("ns,sn->n", weight, rows)
        got, _ = reference_solve(model.initial, 64 * h_fine, path, model, ws)
        assert got.coeffs.tobytes() == u.tobytes()

    def test_a_grid_other_than_the_models_is_rejected(self):
        # The diffusion computes on the model's own grid of 127 points; the
        # workspace parameter accepts that grid or None, nothing else.
        model = heat_multiplicative_model(32, 16)
        path = draw_path(model, 8)
        scheme = builtin_scheme("exp-euler")
        own = step(scheme, model.initial, 8 * H_FINE, path, model).state
        same = step(scheme, model.initial, 8 * H_FINE, path, model, GridWorkspace(127)).state
        assert same.coeffs.tobytes() == own.coeffs.tobytes()
        for grid_points in (48, 255):
            other = GridWorkspace(grid_points=grid_points)
            with pytest.raises(EngineError, match=f"own grid of 127 points, not on {grid_points}"):
                step(scheme, model.initial, 8 * H_FINE, path, model, other)
            with pytest.raises(EngineError, match=f"own grid of 127 points, not on {grid_points}"):
                reference_solve(model.initial, 8 * H_FINE, path, model, other)

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
            x_m, _ = reference_solve(u0, t_end, coarsened(fine_path, 2), spec, ws)
            x_c, _ = reference_solve(u0, t_end, coarsened(fine_path, 4), spec, ws)
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
    plans = [BoundPlan(scheme, s, h, H_FINE) for s in specs]
    assert plans[0].tables is plans[2].tables  # equal eigenvalues
    assert plans[0].tables is not plans[1].tables
    for plan in plans:
        tables = plan.tables
        for table in (
            tables.times, tables.decay_fine, tables.end_weights, tables.flow,
            tables.drift_flow, tables.flow_at, tables.drift_flow_at,
        ):
            assert not table.flags.writeable


def test_custom_wood_compiles_and_steps(mult):
    # A hand-built computable plan, the Milstein correction alone: its
    # increment is what milstein-b0 adds to exp-euler on the same path.
    scheme = compile_scheme(integral(1, L["2"], (I0(L["0"]),)))
    path = draw_path(mult, 8)
    u0, h = mult.initial, 8 * H_FINE
    alone = step(scheme, u0, h, path, mult).state.coeffs - u0.coeffs
    milstein = step(builtin_scheme("milstein-b0"), u0, h, path, mult).state.coeffs
    euler = step(builtin_scheme("exp-euler"), u0, h, path, mult).state.coeffs
    np.testing.assert_allclose(alone, milstein - euler, rtol=1e-12)


class ConstantDrift:
    """F(v) = f0 for a fixed vector; all derivatives vanish."""

    def __init__(self, f0):
        self.f0 = np.asarray(f0, dtype=float)

    def bind_value(self):
        return lambda base: self.f0

    def bind_rows(self, order):
        return None


class DiagonalLinearDrift:
    """F(v) = d * v per mode; the derivative applies the same weights."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)

    def bind_value(self):
        return lambda base: self.weights * base

    def bind_rows(self, order):
        if order != 1:
            return None
        return lambda base, arg_rows: self.weights[None, :] * np.asarray(arg_rows[0])


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
