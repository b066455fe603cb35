"""Scheme engine: compilation, stepping, reference coupling, noise streams."""

import collections
import dataclasses
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from spde_taylor import engine
from spde_taylor.engine import (
    BUILTIN_WOODS,
    BoundPlan,
    EngineError,
    MeshMismatchError,
    NoisePath,
    NonfiniteValueError,
    NotImplementableError,
    _first_failures,
    _mesh_tables,
    _run,
    builtin_scheme,
    compile_scheme,
    path_generator,
    reference_solve,
    step,
)
from spde_taylor.models import (
    GridWorkspace,
    ModelSpec,
    MultiplicationDiffusion,
    SpectralState,
    apply_semigroup,
    convolution_variances,
    dirichlet_eigenvalues,
    heat_additive_model,
    heat_multiplicative_model,
    initial_condition,
)
from spde_taylor.terms import I0, integral, phi_wood, psi, term_sum
from spde_taylor.trees import NodeLabel, initial_wood, parse

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

    def test_paths_compare_and_hash_by_identity(self):
        # A path's record holds what steps built from it, so two paths of
        # equal increments are two paths.
        path = NoisePath(np.zeros((2, 2)), h_fine=1.0)
        twin = NoisePath(np.zeros((2, 2)), h_fine=1.0)
        assert path == path and path != twin and path.prefix(2) != path
        assert len({path, twin, path}) == 2

    @pytest.mark.parametrize("h_fine", [0.0, -1.0, np.nan, np.inf])
    def test_h_fine_must_be_positive_and_finite(self, h_fine):
        with pytest.raises(ValueError, match="h_fine must be positive and finite"):
            NoisePath(np.zeros((2, 2)), h_fine=h_fine)

    def test_prefix_too_long(self):
        # A negative count must not wrap round through a negative slice.
        path = NoisePath.draw(path_generator(1, 0), 8, 2, H_FINE)
        for substeps in (9, -1):
            with pytest.raises(MeshMismatchError):
                path.prefix(substeps)

    def test_a_short_prefix_prepares_and_keeps_the_whole_path(self):
        # The cost NoisePath's docstring warns of: one step on a prefix of
        # 4 substeps prepares the path's whole window, P = 63 grid columns
        # a row against M = 16 increments at N = M = 16, and builds the rows
        # of the scheme's one diffusion term over it, N = 16 a row; the
        # path holds both after the step, 2 MiB and 512 KiB for 2^12
        # substeps.  The peak adds the (S, P) grid product of those rows.
        model = heat_multiplicative_model(16, 16)
        scheme, path = builtin_scheme("exp-euler"), draw_path(model, 2**12)
        prepared = path.substeps * model.diffusion.workspace.grid_points * 8
        rows = path.substeps * model.modes * 8
        step(scheme, model.initial, 4 * H_FINE, draw_path(model, 4, index=1), model)
        tracemalloc.start()
        try:
            step(scheme, model.initial, 4 * H_FINE, path.prefix(4), model)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prepared + rows <= held < prepared + rows + 64 * 1024
        assert peak < 2 * prepared + rows + 64 * 1024


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

    def test_a_step_past_the_path_raises_before_binding(self):
        # 64 / 2^-10 substeps on a path of 8: binding the plan would build
        # the (32, 65536) end weights, 16 MiB, and keep them in the table
        # cache.  The count is checked against the path first.
        model = heat_multiplicative_model(32, 32)
        path = draw_path(model, 8)
        cached = _mesh_tables.cache_info().currsize
        tracemalloc.start()
        try:
            with pytest.raises(MeshMismatchError, match="needs 65536 substeps, path provides 8"):
                step(builtin_scheme("exp-euler"), model.initial, 64.0, path, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert _mesh_tables.cache_info().currsize == cached

    @pytest.mark.parametrize("span", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_step_or_horizon_is_a_mesh_mismatch(self, span, mult):
        # nan / h_fine and inf / h_fine are no count of substeps; neither
        # entry point may fail converting them to an integer.
        path = draw_path(mult, 8)
        with pytest.raises(MeshMismatchError, match="is not a finite count"):
            step(builtin_scheme("exp-euler"), mult.initial, span, path, mult)
        with pytest.raises(MeshMismatchError, match="is not a finite count"):
            reference_solve(mult.initial, span, path, mult)

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

    @pytest.mark.parametrize("name", sorted(BUILTIN_WOODS))
    @pytest.mark.parametrize("modes, noise_modes", [(8, 8), (8, 4), (4, 8)])
    def test_step_builds_no_window_sized_array(self, modes, noise_modes, name):
        # The path's increments take 256 or 512 KiB; the first step on a
        # path reads them through views, so it allocates a few KiB once the
        # mesh tables exist.  The diagonal model binds every derivative of
        # B to None, so no scheme reads I^0_2 there and each takes the
        # fused sum.
        model = heat_additive_model(modes, noise_modes)
        scheme, zero = builtin_scheme(name), SpectralState(np.zeros(modes))
        paths = [
            NoisePath.draw(path_generator(2024, index), self.SUBSTEPS, noise_modes, self.H_FINE)
            for index in range(2)
        ]
        step(scheme, zero, self.H, paths[0], model)
        tracemalloc.start()
        try:
            step(scheme, zero, self.H, paths[1], model)
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
        states, _ = _run(plan, start_states(mult, 3), plan.prepare_noise(increments), 64)
        assert np.isfinite(states).all()
        for row in range(3):
            path = NoisePath(increments[row], h_fine=H_FINE)
            ref, _ = reference_solve(mult.initial, 64 * H_FINE, path, mult)
            assert states[row].tobytes() == ref.coeffs.tobytes()

    @pytest.mark.parametrize("name", sorted(BUILTIN_WOODS))
    def test_single_step_run_equals_step_bitwise(self, name, mult):
        # A one-step run contracts rows built over the whole window it is
        # handed: step() over the prepared window of the whole drawn path,
        # the one-step order study over its chunk's, so a path gets the
        # same bytes alone, in a chunk, with or without a store, and from
        # step().  A run on a window of h / h_fine rows builds its rows
        # there; it agrees up to rounding, since BLAS blocks a product's
        # rows by their count, and its batched and single runs agree
        # bitwise.
        scheme = builtin_scheme(name)
        increments = chunk_increments(mult, 3, 256, seed=9)
        for substeps in (1, 16, 256):
            h = substeps * H_FINE
            plan = BoundPlan(scheme, mult, h, H_FINE)
            noise = plan.prepare_noise(increments)
            chunk, _ = _run(plan, start_states(mult, 3), noise, 1, store={})
            shared, _ = _run(plan, start_states(mult, 3), noise, 1)
            exact, _ = _run(
                plan, start_states(mult, 3), plan.prepare_noise(increments[:, :substeps]), 1
            )
            for row in range(3):
                path = NoisePath(increments[row], h_fine=H_FINE)
                single = step(scheme, mult.initial, h, path, mult).state
                alone = plan.prepare_noise(increments[row : row + 1])
                solo, _ = _run(plan, start_states(mult, 1), alone, 1, store={})
                loop, _ = _run(
                    plan,
                    start_states(mult, 1),
                    plan.prepare_noise(increments[row : row + 1, :substeps]),
                    1,
                )
                assert single.coeffs.tobytes() == solo[0].tobytes()
                assert single.coeffs.tobytes() == chunk[row].tobytes()
                assert single.coeffs.tobytes() == shared[row].tobytes()
                assert exact[row].tobytes() == loop[0].tobytes()
                np.testing.assert_allclose(exact[row], single.coeffs, rtol=1e-13, atol=1e-16)

    def test_blow_up_stays_in_its_row(self, mult):
        # Path 1's increments overflow the iterated term; the other paths of
        # the chunk end where they end alone.
        increments = chunk_increments(mult, 3, 16, seed=4)
        increments[1] *= 1e200
        plan = BoundPlan(builtin_scheme("full-2nd"), mult, 16 * H_FINE, H_FINE)
        noise = plan.prepare_noise(increments)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, _ = _run(plan, start_states(mult, 3), noise, 1)
            failed = _first_failures(plan, start_states(mult, 3), noise, states, 1)
        assert set(failed) == {1}
        assert failed[1].term == "I^1_2[I^0_2]"
        for row in (0, 2):
            solo, _ = _run(
                plan, start_states(mult, 1), plan.prepare_noise(increments[row : row + 1]), 1
            )
            assert np.isfinite(solo).all()
            assert states[row].tobytes() == solo[0].tobytes()

    def test_finite_states_whose_squares_overflow_run_on(self, additive):
        # States near 1e200 overflow a sum of squares; the elementwise
        # check of the end states finds every state finite, and the run
        # raises no warning.
        increments = chunk_increments(additive, 3, 16, seed=6)
        plan = BoundPlan(builtin_scheme("exp-euler"), additive, 4 * H_FINE, H_FINE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, _ = _run(
                plan, start_states(additive, 3) * 1e200, plan.prepare_noise(increments), 4
            )
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
            before, _ = _run(plan, start_states(mult, 3), noise, 5)
            states, recorded = _run(plan, start_states(mult, 3), noise, 8, (5, 6))
            failed = _first_failures(plan, start_states(mult, 3), noise, states, 8)
        assert np.isfinite(before).all()
        assert set(failed) == {1} and failed[1].term == "I^0_2"
        assert np.isfinite(recorded[5][1]).all()
        assert not np.isfinite(recorded[6][1]).any()
        for row in (0, 2):
            solo, _ = _run(
                plan, start_states(mult, 1), plan.prepare_noise(increments[row : row + 1]), 8
            )
            assert np.isfinite(solo).all()
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
        noise = plan.prepare_noise(increments)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, recorded = _run(plan, start_states(mult, 3), noise, 8, tuple(range(9)))
            failed = _first_failures(plan, start_states(mult, 3), noise, states, 8)
        assert {row: error.term for row, error in failed.items()} == {
            1: "I^1_2[I^0_2]", 2: "I^0_2",
        }
        finite = [[bool(np.isfinite(recorded[n][row]).all()) for n in range(9)] for row in range(3)]
        assert finite == [[True] * 9, [True] * 3 + [False] * 6, [True] * 6 + [False] * 3]
        assert recorded[8] is states

    @pytest.mark.parametrize("model_name", ["heat-mult", "heat-add"])
    def test_a_fused_steps_finite_start_and_sum_that_overflow_name_the_sum(
        self, model_name, mult, additive
    ):
        # Path 1 starts near the largest double in mode 1, and its first
        # increment drives mode 1 near it too: its sum, e^{-lambda h} u0
        # and u0 are finite, the fused step is not.  The replay runs the
        # plan's one term, I^0_2, on the step's window, finds it finite and
        # names neither term but their sum.  On heat-mult the center of the
        # grid holds 1.2e308 (1 + 0.7): the folded grid product overflows
        # where the sum's does not.
        model = {"heat-mult": mult, "heat-add": additive}[model_name]
        plan = BoundPlan(builtin_scheme("exp-euler"), model, H_FINE, H_FINE)
        assert plan.fused is not None
        size, kick = (1.5e308, 1.5e308)
        if model is mult:  # a sine mode's grid values peak at sqrt(2) times its coefficient
            size, kick = 1.2e308 / math.sqrt(2), 0.7 / math.sqrt(2)
        increments = chunk_increments(model, 3, 4, seed=23)
        increments[1, 0] = 0.0
        increments[1, 0, 0] = kick
        u0 = start_states(model, 3)
        u0[1] = 0.0
        u0[1, 0] = size
        noise = plan.prepare_noise(increments)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, _ = _run(plan, u0, noise, 4)
            failed = _first_failures(plan, u0, noise, states, 4)
            [(name, term)] = plan.terms
            total = np.empty(model.modes)
            term(u0[1], noise[1], {}, total)
        assert name == "I^0_2" and np.isfinite(total).all()
        assert np.isfinite(states[[0, 2]]).all()
        assert {row: error.term for row, error in failed.items()} == {1: "sum of plan terms"}

    @pytest.mark.parametrize("substep, named", [(2, {1: "I^0_2"}), (10, {})])
    def test_a_one_step_replay_of_a_wide_fused_plan_reads_its_steps_rows(
        self, substep, named, additive
    ):
        # One exp-euler step of 4 substeps on heat-add fuses and reads the
        # first 4 rows of a 16-row window.  A NaN in path 1's increments
        # at substep 2 makes its state non-finite, and the replay names
        # I^0_2; paths 0 and 2 keep their solo bytes.  A NaN at substep 10,
        # past h, leaves every state finite.
        plan = BoundPlan(builtin_scheme("exp-euler"), additive, 4 * H_FINE, H_FINE)
        assert plan.fused is not None
        increments = chunk_increments(additive, 3, 16, seed=29)
        increments[1, substep, 2] = np.nan
        noise = plan.prepare_noise(increments)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, _ = _run(plan, start_states(additive, 3), noise, 1)
            failed = _first_failures(plan, start_states(additive, 3), noise, states, 1)
        assert {row: error.term for row, error in failed.items()} == named
        assert [bool(np.isfinite(row).all()) for row in states] == [True, not named, True]
        for row in (0, 2):
            solo, _ = _run(plan, start_states(additive, 1), noise[row : row + 1], 1)
            assert states[row].tobytes() == solo[0].tobytes()

    def test_multi_step_rejects_partial_last_step(self, mult):
        # 4.5 substeps end off the fine mesh: no silent truncation.
        path = draw_path(mult, 8)
        with pytest.raises(MeshMismatchError, match="t_end .* whole number of steps of h"):
            reference_solve(mult.initial, 4.5 * H_FINE, path, mult)

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
        # Pins the reference's arithmetic: u0 + I^0_0 is the semigroup
        # e^{-lambda h_fine} u0, the zero drift's I^0_1 is dropped, and
        # I^0_2 is the grid row times the interpolant with the end-weight
        # column folded in.  That column is the semigroup, and the grid
        # round trip (S^T u) Ip is u up to rounding, so a substep is three
        # products: the transposed sine matrix times u, times 1 + the noise
        # row, times the weighted interpolant; the same products give the
        # same bytes.  The recurrence with its own semigroup product and
        # add, taken from each recorded state, gives the next one to
        # rounding, 1e-14 of the state's scale.
        model = heat_multiplicative_model(64, 64)
        ws = model.workspace()
        h_fine = 2.0**-12
        path = NoisePath.draw(path_generator(2024, 0), 64, 64, h_fine)
        lam = model.eigenvalues
        semigroup, column = np.exp(-lam * h_fine), np.exp(-lam[:, None] * h_fine)[:, 0]
        sine, interpolant = ws.transforms(model.modes)
        transposed, weighted = np.ascontiguousarray(sine.T), interpolant * column
        u = model.initial.coeffs
        grid = ws.to_grid(path.increments)
        for row in grid:
            u = ((transposed @ u) * (1.0 + row)) @ weighted
        got, states = reference_solve(
            model.initial, 64 * h_fine, path, model, ws, record_substeps=tuple(range(65))
        )
        assert got.coeffs.tobytes() == u.tobytes()
        for n, row in enumerate(grid):
            v = states[n].coeffs
            unfolded = semigroup * v + ((transposed @ v) * row) @ weighted
            assert np.abs(states[n + 1].coeffs - unfolded).max() <= 1e-14 * np.abs(v).max()

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

    def test_one_substep_of_a_longer_path_has_the_bytes_of_a_longer_run(self, mult):
        # The reference steps over the substeps it spans alone: on a model
        # that fuses no sum, its one substep builds rows over one row of
        # noise, not over the whole path, as the first substep of a longer
        # run does.
        model = dataclasses.replace(
            mult, diffusion=UnfusedMultiplier(mult.modes, mult.noise_modes)
        )
        path = draw_path(model, 64, seed=3)
        one, _ = reference_solve(model.initial, H_FINE, path, model)
        _, recorded = reference_solve(
            model.initial, 8 * H_FINE, path, model, record_substeps=(1,)
        )
        assert one.coeffs.tobytes() == recorded[1].coeffs.tobytes()

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


class TestInPlaceLoop:
    """The stepping loop writes into buffers of its own run; every caller
    steps through the same node steps, and a plan holds no buffers."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_WOODS))
    # Short model IDs keep every case's ID distinct in the first 100
    # characters of its dotted test name.
    @pytest.mark.parametrize("model_name", ["heat-mult", "heat-add"], ids=["mult", "add"])
    @pytest.mark.parametrize("substeps", [1, 4])
    @pytest.mark.parametrize("paths", [None, 3], ids=["single", "batch"])
    def test_run_equals_a_loop_of_one_step_runs(
        self, name, model_name, substeps, paths, mult, additive
    ):
        # A run of four steps equals a loop that advances the state by four
        # one-step runs, each on its h-long block: the run hands each step
        # that block and a fresh store, as a one-step run does.
        model = {"heat-mult": mult, "heat-add": additive}[model_name]
        plan = BoundPlan(builtin_scheme(name), model, substeps * H_FINE, H_FINE)
        increments = chunk_increments(model, 3 if paths else 1, 4 * substeps, seed=16)
        if paths is None:
            increments = increments[0]
        u0 = start_states(model, paths) if paths else model.initial.coeffs
        noise = plan.prepare_noise(increments)
        end, recorded = _run(plan, u0, noise, 4, (1, 3))
        state, loop = u0, {}
        for n in range(1, 5):
            state, _ = _run(plan, state, noise[..., (n - 1) * substeps : n * substeps, :], 1)
            loop[n] = state
        assert end.tobytes() == loop[4].tobytes()
        assert {n: s.tobytes() for n, s in recorded.items()} == {
            n: loop[n].tobytes() for n in (1, 3)
        }

    def test_a_longer_run_keeps_its_rows_out_of_a_given_store(self, mult):
        # Each step of a longer run builds its rows over its own block from
        # its own start state, so a store handed to the run goes unused.
        plan = BoundPlan(builtin_scheme("full-2nd"), mult, 16 * H_FINE, H_FINE)
        noise = plan.prepare_noise(chunk_increments(mult, 3, 64, seed=5))
        store = {}
        given, _ = _run(plan, start_states(mult, 3), noise, 4, store=store)
        fresh, _ = _run(plan, start_states(mult, 3), noise, 4)
        assert given.tobytes() == fresh.tobytes()
        assert store == {}

    @pytest.mark.parametrize("name", sorted(BUILTIN_WOODS))
    def test_a_run_only_reads_the_start_states(self, name, mult):
        # The study hands one array of start states to every plan of a
        # chunk; a run that wrote it would move every later plan's start.
        u0 = start_states(mult, 3)
        u0.flags.writeable = False
        increments = chunk_increments(mult, 3, 16, seed=17)
        for substeps in (1, 4):
            plan = BoundPlan(builtin_scheme(name), mult, substeps * H_FINE, H_FINE)
            noise = plan.prepare_noise(increments)
            _run(plan, u0, noise, 16 // substeps, (0, 1))
            _run(plan, u0, noise, 1, store={})
        assert u0.tobytes() == start_states(mult, 3).tobytes()

    def test_recorded_states_keep_their_bytes_after_later_steps(self, mult):
        # The two state buffers alternate, so a snapshot is a copy; the end
        # state is recorded as it is, since no step follows it.
        plan = BoundPlan(builtin_scheme("exp-euler"), mult, H_FINE, H_FINE)
        noise = plan.prepare_noise(chunk_increments(mult, 3, 8, seed=18))
        u0 = start_states(mult, 3)
        end, recorded = _run(plan, u0, noise, 8, tuple(range(9)))
        assert recorded[0] is u0 and recorded[8] is end
        for n in range(1, 9):
            alone, _ = _run(plan, u0, noise, n)
            assert recorded[n].tobytes() == alone.tobytes()
        assert len({id(state) for state in recorded.values()}) == 9

    def test_one_cached_plan_steps_paths_alternately_with_their_solo_bytes(self, mult):
        # step() and reference_solve() take their plans from one cache;
        # interleaving two paths through a shared plan gives each the bytes
        # it gets from a plan of its own.
        scheme, h = builtin_scheme("full-2nd"), 16 * H_FINE
        increments = [draw_path(mult, 16, seed=19, index=i).increments for i in range(2)]

        def run(i):
            path = NoisePath(increments[i], h_fine=H_FINE)  # a fresh store
            state = step(scheme, mult.initial, h, path, mult).state
            reference, _ = reference_solve(mult.initial, h, path, mult)
            return state.coeffs.tobytes() + reference.coeffs.tobytes()

        solo = []
        for i in range(2):
            engine._plan.cache_clear()
            solo.append(run(i))
        engine._plan.cache_clear()
        for i in (0, 1, 1, 0, 1):
            assert run(i) == solo[i]
        info = engine._plan.cache_info()
        assert (info.misses, info.hits) == (2, 8)

    def test_returned_states_wrap_the_runs_arrays_with_no_second_check(self, mult, monkeypatch):
        # step() and reference_solve() wrap the arrays their run made and
        # tested: no state is converted, checked or copied again, the end
        # state and the snapshot at t_end share one array, the snapshot at
        # 0 is u0's, and none can be written.
        path = draw_path(mult, 16, seed=22)
        checked = []
        post_init = SpectralState.__post_init__
        monkeypatch.setattr(
            SpectralState, "__post_init__", lambda state: checked.append(post_init(state))
        )
        end, snapshots = reference_solve(
            mult.initial, 16 * H_FINE, path, mult, record_substeps=(0, 4, 16)
        )
        stepped = step(builtin_scheme("full-2nd"), mult.initial, 16 * H_FINE, path, mult).state
        assert checked == []
        assert snapshots[16].coeffs is end.coeffs
        assert snapshots[0].coeffs is mult.initial.coeffs
        for state in (end, stepped, *snapshots.values()):
            assert state.coeffs.dtype == float and not state.coeffs.flags.writeable
        assert end == SpectralState(end.coeffs) and checked == [None]

    def test_a_scheme_keeps_its_hash_and_pickles_without_it(self):
        scheme = builtin_scheme("milstein-b0")
        assert hash(scheme) == hash((scheme.terms, scheme.source_wood))
        assert "_hash" in vars(scheme)
        copy = pickle.loads(pickle.dumps(scheme))
        assert "_hash" not in vars(copy)
        assert copy == scheme and hash(copy) == hash(scheme)


class TestLadder:
    """One step at every h of a ladder, by a plan of each h handed the
    longest window, which build each term's rows once in one shared store,
    against the stepping loop of the same plan on noise prepared from its
    own prefix."""

    SUBSTEPS = (256, 64, 16, 4)
    #: Where the two agree to the last bit on these shapes: the schemes with
    #: no product or only the order-0 one, and the diagonal model, which
    #: multiplies no matrices.
    BITWISE = {
        "heat-mult": {"taylor-delta", "exp-euler", "exp-euler-nodrift"},
        "heat-add": set(BUILTIN_WOODS),
    }

    def ladder(self, scheme, model):
        return [BoundPlan(scheme, model, k * H_FINE, H_FINE) for k in self.SUBSTEPS]

    @pytest.mark.parametrize("name", sorted(BUILTIN_WOODS))
    @pytest.mark.parametrize("model_name", ["heat-mult", "heat-add"])
    def test_each_h_equals_its_own_loop(self, name, model_name, mult, additive):
        model = {"heat-mult": mult, "heat-add": additive}[model_name]
        scheme = builtin_scheme(name)
        increments = chunk_increments(model, 3, 256, seed=13)
        plans = self.ladder(scheme, model)
        noise, rows = plans[0].prepare_noise(increments), {}
        for k, plan in zip(self.SUBSTEPS, plans):
            state, _ = _run(plan, start_states(model, 3), noise, 1, store=rows)
            loop, _ = _run(plan, start_states(model, 3), plan.prepare_noise(increments[:, :k]), 1)
            np.testing.assert_allclose(state, loop, rtol=1e-13, atol=1e-16)
            if name in self.BITWISE[model_name]:
                assert state.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("constant_drift", [False, True], ids=["zero", "constant"])
    def test_a_read_drift_flow_steps_as_its_loop(self, constant_drift, mult):
        # I^1_2[I^0_1] reads the trajectory of the drift flow: zero for the
        # zero drift, whose node vanishes, so the step leaves u0 as it is.
        scheme = compile_scheme(integral(1, L["2"], (I0(L["1"]),)))
        model = mult
        if constant_drift:
            model = dataclasses.replace(mult, drift=ConstantDrift(np.ones(mult.modes)))
        increments = chunk_increments(model, 3, 256, seed=14)
        plans = self.ladder(scheme, model)
        noise, rows = plans[0].prepare_noise(increments), {}
        path = NoisePath(increments[0], h_fine=H_FINE)
        for k, plan in zip(self.SUBSTEPS, plans):
            state, _ = _run(plan, start_states(model, 3), noise, 1, store=rows)
            loop, _ = _run(plan, start_states(model, 3), plan.prepare_noise(increments[:, :k]), 1)
            np.testing.assert_allclose(state, loop, rtol=1e-13, atol=1e-16)
            stepped = step(scheme, model.initial, k * H_FINE, path.prefix(k), model).state
            assert stepped.coeffs.tobytes() == state[0].tobytes()
            if not constant_drift:
                assert (state == start_states(model, 3)).all()

    @pytest.mark.parametrize("model_name", ["heat-mult", "heat-add"])
    def test_one_store_builds_each_trajectory_once(self, model_name, mult, additive, monkeypatch):
        # milstein-b0 and full-2nd at four h on one store: full-2nd reads
        # I^0_2's trajectory, a running sum, made once for all of them (on
        # heat-add nothing reads it); their states have the bytes of plans
        # that each keep their own store.
        model = {"heat-mult": mult, "heat-add": additive}[model_name]
        schemes = [builtin_scheme(n) for n in ("milstein-b0", "full-2nd")]
        plans = [p for scheme in schemes for p in self.ladder(scheme, model)]
        noise = plans[0].prepare_noise(chunk_increments(model, 3, 256, seed=15))
        sums = []

        def counted(*args):
            sums.append(args)
            return running_sum(*args)

        running_sum = engine._running_sum
        monkeypatch.setattr(engine, "_running_sum", counted)
        store = {}
        shared = [_run(p, start_states(model, 3), noise, 1, store=store)[0] for p in plans]
        assert len(sums) == (model_name == "heat-mult")
        for plan, got in zip(plans, shared):
            alone, _ = _run(plan, start_states(model, 3), noise, 1, store={})
            assert got.tobytes() == alone.tobytes()

    def test_a_blow_up_past_an_h_leaves_that_h_finite(self, mult):
        # Path 1's increments from substep 64 on overflow full-2nd's
        # iterated term, and only its state at 256 substeps is not finite:
        # the shorter steps contract rows before the blow-up, and have the
        # bytes of the unscaled path, as have paths 0 and 2 at every h.
        # exp-euler, with no iterated term, stays finite on the same rows.
        increments = chunk_increments(mult, 3, 256, seed=13)
        wild = increments.copy()
        wild[1, 64:] *= 1e200
        full, euler = (self.ladder(builtin_scheme(n), mult) for n in ("full-2nd", "exp-euler"))
        noise, rows = full[0].prepare_noise(wild), {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wild_full, wild_euler = (
                [_run(p, start_states(mult, 3), noise, 1, store=rows)[0] for p in plans]
                for plans in (full, euler)
            )
        clean = full[0].prepare_noise(increments)
        assert [np.isfinite(s).all(axis=-1).tolist() for s in wild_full] == [
            [True, False, True], [True] * 3, [True] * 3, [True] * 3,
        ]
        assert all(np.isfinite(s).all() for s in wild_euler)
        for k, plan, got in zip(self.SUBSTEPS, full, wild_full):
            want, _ = _run(plan, start_states(mult, 3), clean, 1)
            paths = [0, 2] if k > 64 else [0, 1, 2]
            assert got[paths].tobytes() == want[paths].tobytes()

    @pytest.mark.parametrize("model_name", ["heat-mult", "heat-add"])
    def test_a_window_shorter_than_the_step_raises(self, model_name, mult, additive):
        # A plan contracts the first h / h_fine rows of the window it is
        # handed: 8 rows cannot give a step of 16 substeps a state, whether
        # the rows are built (heat-mult) or summed by the model (heat-add).
        model = {"heat-mult": mult, "heat-add": additive}[model_name]
        plan = BoundPlan(builtin_scheme("exp-euler"), model, 16 * H_FINE, H_FINE)
        noise = plan.prepare_noise(chunk_increments(model, 1, 8)[0])
        with pytest.raises(ValueError):
            _run(plan, model.initial.coeffs, noise, 1)

    def test_step_on_a_prefix_before_a_blow_up_is_finite(self, mult):
        # The same through step(): the path's rows overflow past substep
        # 64, and its prefixes up to there step as on the unscaled path.
        scheme = builtin_scheme("full-2nd")
        increments = draw_path(mult, 256, seed=13).increments
        wild = increments.copy()
        wild[64:] *= 1e200
        path, clean = NoisePath(wild, h_fine=H_FINE), NoisePath(increments, h_fine=H_FINE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (64, 16):
                got = step(scheme, mult.initial, k * H_FINE, path.prefix(k), mult).state
                want = step(scheme, mult.initial, k * H_FINE, clean.prefix(k), mult).state
                assert got.coeffs.tobytes() == want.coeffs.tobytes()
            with pytest.raises(NonfiniteValueError) as info:
                step(scheme, mult.initial, 256 * H_FINE, path, mult)
        assert info.value.term == "I^1_2[I^0_2]"


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
            tables.times, tables.decay_fine, tables.semigroup, tables.end_weights, tables.flow,
            tables.drift_flow, tables.flow_at, tables.drift_flow_at,
        ):
            assert not table.flags.writeable


@pytest.mark.parametrize("lead", [(), (8,)], ids=["path", "chunk"])
@pytest.mark.parametrize("substeps", [16, 128, 256])
def test_a_sum_node_contracts_its_rows_with_the_bytes_of_mode_major_weights(substeps, lead):
    # The end weights are stored [j, i], so a sum node contracts its rows
    # along contiguous memory, faster than with the [i, j] layout; a
    # criterion-3 path's and chunk's rows, 256 of 64 modes, contract to the
    # same bytes either way.
    model = heat_multiplicative_model(64, 64)
    scheme = compile_scheme(I0(L["2"]))
    plan = BoundPlan(scheme, model, substeps * H_FINE, H_FINE)
    weights = plan.tables.end_weights
    assert weights.shape == (substeps, 64) and weights.flags.c_contiguous
    times = np.arange(substeps) * H_FINE
    mode_major = np.exp(-model.eigenvalues[:, None] * (substeps * H_FINE - times[None, :]))
    assert mode_major.T.tobytes() == weights.tobytes()
    rows = np.random.default_rng(substeps).standard_normal(lead + (256, 64))
    [(_, term)] = plan.terms
    value = np.empty(lead + (64,))
    term(model.initial.coeffs, None, {scheme.terms[0]: rows}, value)
    want = np.einsum("ns,...sn->...n", mode_major, rows[..., :substeps, :])
    assert value.tobytes() == want.tobytes()


@pytest.mark.parametrize("substeps", [1, 2, 17, 256])
def test_running_sum_is_the_decayed_sum_of_earlier_rows(substeps):
    # Row j of the trajectory is sum_{m<j} d^(j-m) row_m.  The rows are
    # positive, so the closed form sums without cancellation and rtol
    # bounds the recursion's rounding alone.
    rng = np.random.default_rng(substeps)
    modes = 8
    decay = rng.uniform(0.5, 1.0, modes)
    batch = rng.uniform(0.0, 1.0, (3, substeps, modes))
    lags = np.subtract.outer(np.arange(substeps), np.arange(substeps))
    weights = np.where((lags > 0)[..., None], decay ** np.maximum(lags, 0)[..., None], 0.0)
    want = np.einsum("jmn,pmn->pjn", weights, batch)
    got = engine._running_sum(batch, decay)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    for path in range(3):
        alone = engine._running_sum(batch[path], decay)
        np.testing.assert_allclose(alone, want[path], rtol=1e-13, atol=0)
        assert alone.tobytes() == got[path].tobytes()


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
        return lambda base: np.broadcast_to(self.f0, base.shape)

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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda m: NoisePath(np.zeros(4), h_fine=H_FINE), ValueError,
         "increments must be a (substeps, modes) array"),
        (lambda m: step(builtin_scheme("exp-euler"), SpectralState(np.ones(m.modes + 1)),
                        H_FINE, draw_path(m, 1), m), EngineError,
         "state has 33 modes, model 32"),
        (lambda m: reference_solve(m.initial, H_FINE,
                                   NoisePath(np.zeros((1, m.noise_modes - 1)), h_fine=H_FINE), m),
         EngineError, "path drives 31 noise modes, model 32"),
    ],
    ids=["flat-increments", "state-modes", "noise-modes"],
)
def test_malformed_engine_input_is_rejected(call, error, message, mult):
    with pytest.raises(error, match=re.escape(message)):
        call(mult)


class UnfusedMultiplier(MultiplicationDiffusion):
    """A test double: multiplication noise that fuses no step, so every
    plan, the reference's too, builds its rows."""

    def bind_step(self, weights):
        return None


class KnownRows:
    """A test double: the multiplication model's truncation, whose B'' rows
    are fixed numbers, whatever the base, the arguments and the noise."""

    def __init__(self, modes, noise_modes, substeps):
        self.modes, self.noise_modes = modes, noise_modes
        self.rows = np.arange(1.0, substeps * modes + 1).reshape(substeps, modes) / substeps

    def prepare_noise(self, noise_rows):
        return np.asarray(noise_rows, dtype=float)

    def bind_rows(self, order):
        if order != 2:
            return None
        return lambda base, arg_rows, noise: self.rows.copy()


def test_a_repeated_argument_is_lowered_once_and_its_node_divides_by_two_factorial(mult):
    # (2[0,0]) compiles to I^2_2[I^0_0,I^0_0]: one I^0_0 node serves both
    # arguments, and the I^2_2 node's value is the end-weighted sum of its
    # rows over 2!.
    scheme = compile_scheme(psi(parse("(2[0,0]);(2*)")))
    assert scheme.describe() == "I^2_2[I^0_0,I^0_0]"
    assert [kind for kind, *_ in scheme.lowered[0]] == ["flow", "diffusion"]
    substeps = 8
    model = dataclasses.replace(
        mult, diffusion=KnownRows(mult.modes, mult.noise_modes, substeps)
    )
    plan = BoundPlan(scheme, model, substeps * H_FINE, H_FINE)
    noise = plan.prepare_noise(np.zeros((substeps, model.noise_modes)))
    [(name, term)] = plan.terms
    value = np.empty(model.modes)
    term(model.initial.coeffs, noise, {}, value)
    times = np.arange(substeps) * H_FINE
    weights = np.exp(-model.eigenvalues[:, None] * (substeps * H_FINE - times[None, :]))
    want = np.einsum("ns,sn->n", weights, model.diffusion.rows) / math.factorial(2)
    assert name == "I^2_2[I^0_0,I^0_0]"
    np.testing.assert_allclose(value, want, rtol=1e-15)
    state, _ = _run(plan, model.initial.coeffs, noise, 1)
    assert state.tobytes() == (model.initial.coeffs + value).tobytes()


def test_a_drift_node_of_the_zero_drift_is_dropped(mult):
    # On heat-mult F = 0, so I^1_1[I^0_0] binds to no step; u0 plus I^0_0
    # is the semigroup product, so the plan adds no term to its start, and
    # the state is e^{-lambda h} u0 alone.
    scheme = compile_scheme(psi(parse("(1[0]);(0);(2*)")))
    assert scheme.describe() == "I^0_0 + I^1_1[I^0_0]"
    plan = BoundPlan(scheme, mult, 4 * H_FINE, H_FINE)
    assert plan.terms == () and plan.folds_flow
    noise = plan.prepare_noise(np.zeros((4, mult.noise_modes)))
    state, _ = _run(plan, mult.initial.coeffs, noise, 1)
    lam = mult.eigenvalues
    assert state.tobytes() == (np.exp(-lam * 4 * H_FINE) * mult.initial.coeffs).tobytes()


@pytest.mark.parametrize("substeps", [1, 16])
def test_an_argument_read_only_by_a_dropped_term_runs_no_step(substeps):
    # The diagonal model's B' is zero, so I^1_2[I^1_1[I^0_0]] is dropped.
    # Its argument is live under a linear drift, but only an argument: the
    # plan adds I^0_2 alone to its start, and fuses with the bytes of
    # I^0_0 + I^0_2.
    model = drift_model(DiagonalLinearDrift(np.linspace(0.5, 2.0, 8)))
    argument = integral(1, L["1"], (I0(L["0"]),))
    dropped = integral(1, L["2"], (argument,))
    terms = [I0(L["0"]), I0(L["2"])]
    plans = [
        BoundPlan(compile_scheme(term_sum(t)), model, substeps * H_FINE, H_FINE)
        for t in (terms + [dropped], terms)
    ]
    assert [name for name, _ in plans[0].terms] == ["I^0_2"]
    assert plans[0].fused is not None
    noise = plans[0].prepare_noise(chunk_increments(model, 3, 4 * substeps, seed=19))
    for steps in (1, 4):
        got, want = (_run(plan, start_states(model, 3), noise, steps)[0] for plan in plans)
        assert got.tobytes() == want.tobytes()


def test_a_reader_builds_its_arguments_rows_once_in_the_store(mult):
    # I^0_0 + I^1_2[I^1_2[I^0_2]] adds one term to its start.  The outer
    # term's rows read the trajectory of I^1_2[I^0_2], whose rows read
    # I^0_2's: one run builds the rows of all three sum terms, each once,
    # and leaves them in its store, where a second run finds them.
    diffusion = MultiplicationDiffusion(mult.modes, mult.noise_modes)
    builds, bind_rows = collections.Counter(), diffusion.bind_rows

    def counted_bind_rows(order):
        rows = bind_rows(order)

        def counted(base, arg_rows, noise):
            builds[order] += 1
            return rows(base, arg_rows, noise)

        return counted

    diffusion.bind_rows = counted_bind_rows
    model = dataclasses.replace(mult, diffusion=diffusion)
    inner = integral(1, L["2"], (I0(L["2"]),))
    outer = integral(1, L["2"], (inner,))
    plan = BoundPlan(compile_scheme(term_sum([I0(L["0"]), outer])), model, 16 * H_FINE, H_FINE)
    assert [name for name, _ in plan.terms] == ["I^1_2[I^1_2[I^0_2]]"]
    assert plan.fused is None
    noise = plan.prepare_noise(chunk_increments(model, 3, 16, seed=20))
    store = {}
    first, _ = _run(plan, start_states(model, 3), noise, 1, store=store)
    assert set(store) == {I0(L["2"]), inner, outer}
    assert builds == {0: 1, 1: 2}
    again, _ = _run(plan, start_states(model, 3), noise, 1, store=store)
    assert builds == {0: 1, 1: 2} and again.tobytes() == first.tobytes()


def test_a_second_flow_term_is_added_to_the_semigroup_product(mult):
    # Only one I^0_0 folds into the start: u0 + 2 I^0_0 steps as
    # e^{-lambda h} u0 + (e^{-lambda h} - 1) u0.
    scheme = compile_scheme(term_sum([I0(L["0"]), I0(L["0"])]))
    plan = BoundPlan(scheme, mult, 4 * H_FINE, H_FINE)
    assert [name for name, _ in plan.terms] == ["I^0_0"] and plan.folds_flow
    noise = plan.prepare_noise(np.zeros((4, mult.noise_modes)))
    u0, lam = mult.initial.coeffs, mult.eigenvalues
    state, _ = _run(plan, u0, noise, 1)
    want = np.exp(-lam * 4 * H_FINE) * u0 + np.expm1(-lam * 4 * H_FINE) * u0
    assert state.tobytes() == want.tobytes()


def unfused_exp_euler_failures(mult):
    """The named failures of one unfused exp-euler step of 4 substeps over
    3 paths.  Path 1 starts near the largest double in mode 1, and its
    first increment drives mode 1 near it too: e^{-lambda h} u0 and I^0_2
    are finite, their sum is not.  A NaN in path 2's increments at substep
    2 makes its I^0_2 non-finite."""
    model = dataclasses.replace(mult, diffusion=UnfusedMultiplier(mult.modes, mult.noise_modes))
    plan = BoundPlan(builtin_scheme("exp-euler"), model, 4 * H_FINE, H_FINE)
    assert plan.fused is None
    increments = chunk_increments(model, 3, 4, seed=23)
    increments[1] = 0.0
    increments[1, 0, 0] = 0.7 / math.sqrt(2)
    increments[2, 2, 3] = np.nan
    u0 = start_states(model, 3)
    u0[1] = 0.0
    u0[1, 0] = 1.2e308
    noise = plan.prepare_noise(increments)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, _ = _run(plan, u0, noise, 1)
        failed = _first_failures(plan, u0, noise, states, 1)
    assert np.isfinite(states[0]).all()
    return plan, {row: error.term for row, error in failed.items()}


def test_the_folded_flow_does_not_name_a_term(mult):
    # I^0_0, the scheme's first term, is folded into the start, which is
    # finite wherever u0 is: the replay names the first of the plan's
    # terms that is not finite, never I^0_0.
    plan, failed = unfused_exp_euler_failures(mult)
    assert plan.scheme.terms[0] == I0(L["0"]) and plan.folds_flow
    assert [name for name, _ in plan.terms] == ["I^0_2"]
    assert failed[2] == "I^0_2"


def test_finite_terms_whose_sum_overflows_name_the_sum(mult):
    plan, failed = unfused_exp_euler_failures(mult)
    assert failed == {1: "sum of plan terms", 2: "I^0_2"}
