"""Spectral models: transforms, diffusion oracles, semigroup, initial data."""

import dataclasses
import inspect
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dst, next_fast_len
from scipy.integrate import quad

from spde_taylor.models import (
    BadParameterError,
    DiagonalDiffusion,
    GridWorkspace,
    ModelError,
    MultiplicationDiffusion,
    OutOfRangeError,
    SpectralState,
    apply_diffusion,
    apply_semigroup,
    build_model,
    convolution_variances,
    default_workspace,
    diffusion_matrix,
    heat_additive_model,
    heat_multiplicative_model,
    initial_condition,
    next_smooth,
    smoothed_diffusion_hs_norm,
)

SQRT2 = np.sqrt(2.0)


def unit_state(modes: int, mode: int) -> SpectralState:
    coeffs = np.zeros(modes)
    coeffs[mode - 1] = 1.0
    return SpectralState(coeffs)


@pytest.fixture(scope="module")
def mult():
    return heat_multiplicative_model(modes=64, noise_modes=64)


@pytest.fixture(scope="module")
def additive():
    return heat_additive_model(modes=8, noise_modes=8)


def galerkin_triple_products(modes: int, noise_modes: int) -> np.ndarray:
    """T[j, k, n] = int_0^1 e_j e_k e_n dx for e_i = sqrt(2) sin(i pi x).

    sin(a) sin(b) = (cos(a - b) - cos(a + b)) / 2, and int_0^1 sin(n pi x)
    cos(p pi x) dx is n (1 - (-1)^(n+p)) / (pi (n^2 - p^2)), or 0 at n = p.
    """

    def sine_cosine(n, p):
        n, p = np.broadcast_arrays(n.astype(float), p.astype(float))
        out = np.zeros(n.shape)
        off = n != p
        out[off] = (
            n[off] * (1.0 - (-1.0) ** (n[off] + p[off]))
            / (np.pi * (n[off] ** 2 - p[off] ** 2))
        )
        return out

    j = np.arange(1, modes + 1)[:, None, None]
    k = np.arange(1, noise_modes + 1)[None, :, None]
    n = np.arange(1, modes + 1)[None, None, :]
    return SQRT2 * (sine_cosine(n, np.abs(j - k)) - sine_cosine(n, j + k))


def is_11_smooth(n: int) -> bool:
    for p in (2, 3, 5, 7, 11):
        while n % p == 0:
            n //= p
    return n == 1


class TestSpectralState:
    def test_norm_is_euclidean(self):
        state = SpectralState(np.array([3.0, 4.0]))
        assert state.norm() == 5.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SpectralState(np.array([1.0, np.nan]))

    def test_immutable(self):
        state = SpectralState(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            state.coeffs[0] = 7.0

    def test_equal_states_hash_equal_across_signed_zeros(self):
        plus, minus = SpectralState([0.0, 1.0]), SpectralState([-0.0, 1.0])
        assert plus == minus and hash(plus) == hash(minus)
        assert len({plus, minus}) == 1


class TestModelParameters:
    def test_eigenvalues(self, mult):
        assert mult.eigenvalues[0] == pytest.approx(np.pi**2)
        assert mult.eigenvalues[1] == pytest.approx(4 * np.pi**2)

    def test_exponents(self, mult):
        assert mult.gamma == pytest.approx(0.25 - 0.005)
        assert mult.delta == 0.25

    def test_bad_r(self):
        with pytest.raises(BadParameterError):
            heat_multiplicative_model(modes=8, noise_modes=8, r=0.3)
        with pytest.raises(BadParameterError):
            heat_multiplicative_model(modes=8, noise_modes=8, r=0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_eigenvalues_must_be_finite_and_positive(self, bad, mult):
        # An inf eigenvalue would make the flow factor e^{-lambda r} - 1
        # nan at r = 0, and nan passes every comparison test.
        lam = mult.eigenvalues.copy()
        lam[3] = bad
        with pytest.raises(ValueError, match="eigenvalues must be finite and strictly positive"):
            dataclasses.replace(mult, eigenvalues=lam)

    @pytest.mark.parametrize(
        "build, diffusion, message",
        [
            (heat_multiplicative_model, MultiplicationDiffusion(16, 16), "16 state and 16 noise"),
            (heat_multiplicative_model, MultiplicationDiffusion(32, 16), "32 state and 16 noise"),
            (heat_additive_model, DiagonalDiffusion(np.ones(8), 32), "32 state and 8 noise"),
        ],
    )
    def test_diffusion_built_for_another_truncation_is_rejected(self, build, diffusion, message):
        # The operator's products are sized for its own (N, M): a model of
        # another truncation would fail later, inside a matrix product.
        with pytest.raises(ModelError, match=f"{message} modes, the model has 32 and 32"):
            dataclasses.replace(build(32, 32), diffusion=diffusion)


class TestSemigroup:
    def test_identity_at_zero(self, mult):
        state = initial_condition("smooth_poly", 64)
        assert apply_semigroup(state, 0.0, mult) == state

    def test_mode_one_halves_at_log2_over_pi2(self, mult):
        state = unit_state(64, 1)
        t = np.log(2.0) / np.pi**2
        out = apply_semigroup(state, t, mult)
        assert out.coeffs[0] == pytest.approx(0.5, rel=1e-14)

    def test_contraction_and_decay(self, mult):
        rng = np.random.default_rng(3)
        state = SpectralState(rng.standard_normal(64))
        assert apply_semigroup(state, 0.7, mult).norm() <= state.norm()
        assert apply_semigroup(state, 80.0, mult).norm() < 1e-8

    def test_composition(self, mult):
        rng = np.random.default_rng(4)
        state = SpectralState(rng.standard_normal(64))
        for s, t in [(0.3, 0.4), (1e-4, 2e-3), (0.015625, 0.25)]:
            once = apply_semigroup(state, s + t, mult)
            twice = apply_semigroup(apply_semigroup(state, s, mult), t, mult)
            np.testing.assert_allclose(
                twice.coeffs, once.coeffs, rtol=1e-13, atol=1e-300
            )

    def test_negative_time_rejected(self, mult):
        with pytest.raises(ValueError):
            apply_semigroup(unit_state(64, 1), -0.1, mult)


class TestMultiplicativeDiffusion:
    def test_e1_times_e1_matches_analytic_series(self, mult):
        # B(e1)(e1) = 2 sin^2(pi x); its sine coefficients are
        # -8*sqrt2 / (pi i (i^2 - 4)) on odd modes and zero on even modes.
        got = apply_diffusion(mult, 0, unit_state(64, 1), [], 1).coeffs
        i = np.arange(1, 65, dtype=float)
        exact = np.zeros(64)
        odd = np.arange(1, 65) % 2 == 1
        exact[odd] = -8.0 * SQRT2 / (np.pi * i[odd] * (i[odd] ** 2 - 4.0))
        np.testing.assert_allclose(got, exact, atol=1e-6)

    def test_operator_norm_bounded_by_state_norm(self, mult):
        # |B(v)w|_{L1} <= |v| |w| via Cauchy-Schwarz; on the grid the
        # quadrature L1 norm of the product must obey the same bound.
        ws = mult.workspace()
        rng = np.random.default_rng(11)
        for _ in range(10):
            v = rng.standard_normal(64)
            w = rng.standard_normal(64)
            product = ws.to_grid(v) * ws.to_grid(w)
            l1 = np.abs(product).sum() / (ws.grid_points + 1)
            assert l1 <= np.linalg.norm(v) * np.linalg.norm(w) + 1e-9

    def test_bilinear_symmetry(self, mult):
        # <B(v) e_k, e_m> = <B(v) e_m, e_k> since both equal int v e_k e_m.
        rng = np.random.default_rng(12)
        v = SpectralState(rng.standard_normal(64))
        mat = diffusion_matrix(mult, v)
        np.testing.assert_allclose(mat[:64, :64], mat[:64, :64].T, atol=1e-12)

    def test_first_derivative_ignores_base(self, mult):
        rng = np.random.default_rng(13)
        base_a = SpectralState(rng.standard_normal(64))
        base_b = SpectralState(rng.standard_normal(64))
        g = SpectralState(rng.standard_normal(64))
        out_a = apply_diffusion(mult, 1, base_a, [g], 3)
        out_b = apply_diffusion(mult, 1, base_b, [g], 3)
        np.testing.assert_array_equal(out_a.coeffs, out_b.coeffs)

    def test_second_derivative_is_zero(self, mult):
        g = unit_state(64, 2)
        out = apply_diffusion(mult, 2, unit_state(64, 1), [g, g], 1)
        assert out.norm() == 0.0

    def test_noise_mode_out_of_range(self, mult):
        with pytest.raises(OutOfRangeError):
            apply_diffusion(mult, 0, unit_state(64, 1), [], 65)

    def test_collocation_against_galerkin_triple_products(self, mult):
        # <B(v) e_k, e_n> = sum_j v_j <e_j e_k, e_n>, and the triple product
        # has a closed form, so the collocated matrix can be measured against
        # the Galerkin one.  Measured at the default P = 255 (N = M = 64)
        # over seeds 0..19: relative Frobenius error 2.6e-5..1.8e-4 for white
        # bases, 3.5e-6 for the smooth start state; it falls like P^-4.  The
        # lower bound pins that collocation is not the Galerkin projection.
        tensor = galerkin_triple_products(64, 64)
        assert mult.workspace().grid_points == 255
        errors = []
        for seed in range(20):
            v = np.random.default_rng(seed).standard_normal(64)
            got = diffusion_matrix(mult, SpectralState(v))
            want = np.einsum("j,jkn->nk", v, tensor)
            errors.append(np.linalg.norm(got - want) / np.linalg.norm(want))
        assert 1e-5 < max(errors) < 3e-4
        got = diffusion_matrix(mult, mult.initial)
        want = np.einsum("j,jkn->nk", mult.initial.coeffs, tensor)
        assert np.linalg.norm(got - want) < 1e-5 * np.linalg.norm(want)

    @pytest.mark.parametrize("modes, noise_modes", [(64, 64), (32, 16), (8, 16), (1, 1)])
    def test_products_run_on_the_models_grid(self, modes, noise_modes):
        # The diffusion owns its grid: the model's, with at least twice the
        # band of N and M in points, so no frequency of a product folds back
        # onto the retained ones.
        model = heat_multiplicative_model(modes, noise_modes)
        grid = model.diffusion.workspace
        assert grid == model.workspace()
        assert grid.grid_points >= 2 * max(modes, noise_modes)
        noise = model.diffusion.prepare_noise(np.eye(noise_modes))
        assert noise.shape == (noise_modes, grid.grid_points)

    def test_negative_order_rejected(self, mult):
        with pytest.raises(ValueError):
            apply_diffusion(mult, -1, unit_state(64, 1), [], 1)


class TestAdditiveDiffusion:
    def test_column_is_weighted_unit(self, additive):
        out = apply_diffusion(additive, 0, unit_state(8, 1), [], 3)
        expected = np.zeros(8)
        expected[2] = 1.0 / 3.0
        np.testing.assert_array_equal(out.coeffs, expected)

    def test_derivative_vanishes(self, additive):
        g = unit_state(8, 1)
        assert apply_diffusion(additive, 1, g, [g], 1).norm() == 0.0

    def test_base_independence(self, additive):
        a = apply_diffusion(additive, 0, unit_state(8, 1), [], 2)
        b = apply_diffusion(additive, 0, unit_state(8, 5), [], 2)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_convolution_variance_formula(self, additive):
        # Ito isometry for the diagonal operator, cross-checked by quadrature
        # of the integrand b_i^2 e^{-2 lambda_i (h - s)} over [0, h].
        h = 0.125
        got = convolution_variances(additive, h)
        lam = additive.eigenvalues
        for i in range(8):
            b = 1.0 / (i + 1)
            integral, _ = quad(
                lambda s, i=i: np.exp(-2.0 * lam[i] * (h - s)), 0.0, h
            )
            assert got[i] == pytest.approx(b * b * integral, rel=1e-9)

    @pytest.mark.parametrize("noise_modes", [5, 8, 12])
    def test_rows_equal_the_zero_padded_product(self, noise_modes):
        # Fewer noise modes than state modes pad with zeros; at least as
        # many keep the first 8.  Both equal the product copied into zeros.
        model = heat_additive_model(modes=8, noise_modes=noise_modes)
        diffusion = model.diffusion
        raw = np.random.default_rng(5).standard_normal((3, 7, noise_modes))
        noise = diffusion.prepare_noise(raw)
        rows = diffusion.bind_rows(0)(None, (), noise)
        padded = np.zeros((3, 7, 8))
        keep = min(8, noise_modes)
        padded[..., :keep] = (noise * diffusion.weights)[..., :keep]
        assert rows.shape == padded.shape and rows.dtype == padded.dtype
        assert rows.tobytes() == padded.tobytes()

    def test_variances_reject_negative_time(self, additive):
        # The closed form at h < 0 gives negative variances.
        with pytest.raises(ValueError, match="convolution time must be >= 0"):
            convolution_variances(additive, -0.1)

    def test_variances_need_diagonal_model(self, mult):
        with pytest.raises(ModelError):
            convolution_variances(mult, 0.1)


# The shapes of the fused-sum tests: leading batch axes, substeps per window
# and (state, noise) mode counts.
LEADING = [(), (3,), (8,)]
SUBSTEPS = [1, 16, 256, 8192]
MODE_PAIRS = [(8, 8), (8, 4), (4, 8), (64, 64)]
SHAPES = [
    (lead, s, n, m) for lead in LEADING for s in SUBSTEPS for (n, m) in MODE_PAIRS
]


def grid_values(lead, substeps, modes, noise_modes):
    return int(np.prod(lead)) * substeps * default_workspace(modes, noise_modes).grid_points


class TestWeightedSum:
    """The end-weighted sum the engine takes of a diffusion node: the
    einsum of the bound rows with the (S, N) end weights, at orders 0 and
    1, and the model's fused order-0 step (``bind_step``), where it fuses,
    which writes the semigroup start, the first weight row times the base,
    plus that sum into ``out``.  The rows are None where the derivative
    vanishes."""

    @staticmethod
    def check(model, order, lead, substeps):
        """The start plus the einsum of the rows, ``want``, and the fused
        step written into ``out``, ``fused`` (None where the model does not
        fuse), with the inputs; None where B^(order) is zero.  The fused
        step reads the model's rows of the prepared window, as a run hands
        them."""
        diffusion, modes = model.diffusion, model.modes
        rng = np.random.default_rng([order, substeps, modes, model.noise_modes, len(lead)])
        raw = rng.standard_normal(lead + (substeps, model.noise_modes))
        noise = diffusion.prepare_noise(raw)
        base = rng.standard_normal(lead + (modes,))
        args = [rng.standard_normal(lead + (substeps, modes))][:order]
        weights = rng.uniform(0.5, 1.0, (substeps, modes))
        bound = diffusion.bind_rows(order)
        if bound is None:
            return None
        rows = bound(base, args, noise)
        want = weights[0] * base + np.einsum("sn,...sn->...n", weights, rows)
        assert want.shape == lead + (modes,)
        fused = diffusion.bind_step(weights) if order == 0 else None
        out = None
        if fused is not None:
            out = np.full(lead + (modes,), np.nan)
            assert fused.step(base, fused.rows(noise), out) is None
        return SimpleNamespace(want=want, fused=out, base=base, noise=noise, weights=weights)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("lead, substeps, modes, noise_modes", SHAPES)
    def test_diagonal(self, order, lead, substeps, modes, noise_modes):
        # Its order-0 step fuses at every width, with the bytes of the
        # semigroup product plus the einsum.
        sums = self.check(heat_additive_model(modes, noise_modes), order, lead, substeps)
        if order == 0:
            assert sums.fused.tobytes() == sums.want.tobytes()
        else:
            assert sums is None

    # The multiplication rows live on the grid: windows above 2^21 grid
    # values (16 MiB; the two batched 8192-substep windows at 64 modes)
    # are left out to keep the test's memory small.
    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize(
        "lead, substeps, modes, noise_modes",
        [shape for shape in SHAPES if grid_values(*shape) <= 2**21],
    )
    def test_multiplication(self, order, lead, substeps, modes, noise_modes):
        # It fuses the order-0 step of one row alone, folding the start
        # into the grid product, (S^T v)(1 + xi), and the weight row into
        # the interpolant: equal to the start plus the einsum up to
        # rounding, to 1e-15 of the magnitudes of the folded products,
        # since an entry can cancel to far below them.  Wider windows
        # return None, and no order-1 sum is fused, so the engine keeps
        # their rows in the store and shares them across h.
        model = heat_multiplicative_model(modes, noise_modes)
        sums = self.check(model, order, lead, substeps)
        if order == 0 and substeps == 1:
            sine, interpolant = model.diffusion.sine, model.diffusion.interpolant
            grid = (np.abs(sums.base) @ np.abs(sine))[..., None, :] * np.abs(1.0 + sums.noise)
            magnitudes = (grid @ np.abs(interpolant))[..., 0, :] * sums.weights[0]
            assert np.all(np.abs(sums.fused - sums.want) <= 1e-15 * magnitudes)
        else:
            assert sums.fused is None


class TestBoundRows:
    """The fused step of a one-row window and the batched rows."""

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("model_name", ["heat-mult", "heat-add"])
    def test_a_one_row_window_writes_the_row_into_out(self, lead, model_name):
        # The stepping loop at h = h_fine has the fused order-0 step of the
        # window's first noise row written into the state, from the model's
        # rows of the whole window; under a unit weight row it has the
        # bytes of the base plus that row's product: the
        # diagonal's one fresh row, and for multiplication noise the grid
        # row, the transposed sine matrix times the base, times 1 + the
        # noise, times the interpolant, path by path.
        model = build_model(model_name, 16, 8, 0.005)
        rng = np.random.default_rng(len(lead))
        noise = model.diffusion.prepare_noise(rng.standard_normal(lead + (4, 8)))
        base = rng.standard_normal(lead + (16,))
        if model_name == "heat-mult":
            transposed = np.ascontiguousarray(model.diffusion.sine.T)
            grid = (transposed @ base[..., None])[..., 0] * (1.0 + noise[..., 0, :])
            want = (grid[..., None, :] @ model.diffusion.interpolant)[..., 0, :]
        else:
            want = base + model.diffusion.bind_rows(0)(base, (), noise[..., :1, :])[..., 0, :]
        out = np.full(lead + (16,), np.nan)
        fused = model.diffusion.bind_step(np.ones((1, 16)))
        fused.step(base, fused.rows(noise), out)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("substeps", [1, 256])
    def test_a_batch_of_order_zero_rows_stacks_the_rows_of_each_path(self, substeps):
        # A path's rows from a one-path base (N,) have the bytes of its rows
        # in a batch: the products are a stack of one-path products.
        diffusion = heat_multiplicative_model(64, 64).diffusion
        rng = np.random.default_rng(substeps)
        noise = diffusion.prepare_noise(rng.standard_normal((8, substeps, 64)))
        base = rng.standard_normal((8, 64))
        rows = diffusion.bind_rows(0)
        batch = rows(base, (), noise)
        for path in range(8):
            assert rows(base[path], (), noise[path]).tobytes() == batch[path].tobytes()

    def test_batched_order_one_rows_hold_no_window_sized_multiplier(self):
        # Criterion 3's chunk: 8 paths of 256 substeps, P = 255.  The rows
        # take 1 MiB; the grid multiplier is built path by path in one
        # (S, P) buffer of 510 KiB, not as the batch's 4 MiB, and each
        # path's rows have the bytes of that path alone.
        diffusion = heat_multiplicative_model(64, 64).diffusion
        rng = np.random.default_rng(21)
        noise = diffusion.prepare_noise(rng.standard_normal((8, 256, 64)))
        trajectory = rng.standard_normal((8, 256, 64))
        rows = diffusion.bind_rows(1)
        tracemalloc.start()
        try:
            batch = rows(None, [trajectory], noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < batch.nbytes + 256 * 255 * 8 + 64 * 1024
        for path in range(8):
            alone = rows(None, [trajectory[path]], noise[path])
            assert alone.tobytes() == batch[path].tobytes()


class TestInitialConditions:
    def test_first_mode(self):
        state = initial_condition("first_mode", 16)
        np.testing.assert_array_equal(state.coeffs, np.eye(16)[0])

    def test_smooth_poly_against_quadrature(self):
        state = initial_condition("smooth_poly", 12)
        for i in range(1, 13):
            oracle, _ = quad(
                lambda x, i=i: x * (1 - x) * SQRT2 * np.sin(i * np.pi * x), 0, 1
            )
            assert state.coeffs[i - 1] == pytest.approx(oracle, abs=1e-12)

    def test_smooth_poly_closed_form(self):
        state = initial_condition("smooth_poly", 9)
        assert state.coeffs[0] == pytest.approx(4 * SQRT2 / np.pi**3)
        assert state.coeffs[1] == 0.0
        assert state.coeffs[8] == pytest.approx(4 * SQRT2 / (np.pi**3 * 9**3))

    @pytest.mark.parametrize("kind", ["first_mode", "smooth_poly"])
    def test_fractional_norm_finite(self, kind, mult):
        # |(-A)^gamma u0| at the truncation stays modest for gamma < 3/4,
        # and doubling the truncation barely moves it (tail convergence).
        for gamma in (0.245, 0.5, 0.74):
            small = initial_condition(kind, 32)
            large = initial_condition(kind, 64)
            lam_small = mult.eigenvalues[:32]
            lam_large = mult.eigenvalues
            norm_small = np.sqrt(np.sum(lam_small ** (2 * gamma) * small.coeffs**2))
            norm_large = np.sqrt(np.sum(lam_large ** (2 * gamma) * large.coeffs**2))
            assert np.isfinite(norm_large)
            assert norm_large - norm_small <= 0.02 * max(norm_small, 1e-12) + 1e-9

    def test_unknown_kind(self):
        with pytest.raises(BadParameterError):
            initial_condition("bump", 8)


class TestGridWorkspace:
    def test_round_trip(self):
        ws = GridWorkspace(grid_points=64)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(16)
        back = ws.to_grid(coeffs) @ ws.transforms(16)[1]
        np.testing.assert_allclose(back, coeffs, atol=1e-12)

    def test_single_mode_values(self):
        ws = GridWorkspace(grid_points=8)
        values = ws.to_grid(np.array([1.0]))
        np.testing.assert_allclose(
            values, SQRT2 * np.sin(np.pi * ws.nodes), atol=1e-12
        )

    def test_too_many_modes(self):
        ws = GridWorkspace(grid_points=4)
        with pytest.raises(ValueError, match="5 modes exceed 4 grid points"):
            ws.to_grid(np.ones(5))
        with pytest.raises(ValueError, match="5 modes exceed 4 grid points"):
            ws.transforms(5)

    @given(
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_parseval(self, modes, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(modes)
        ws = GridWorkspace(grid_points=4 * modes)
        grid_norm = ws.quadrature_l2_norm(ws.to_grid(coeffs))
        assert abs(grid_norm - np.linalg.norm(coeffs)) < 1e-10


class TestSineMatrixTransforms:
    """The cached sine matrices against the type-I DST they replace: values
    at the nodes are DST-I(c, n=P) / sqrt(2), and the interpolant's
    coefficients are DST-I(v) / (sqrt(2) (P + 1)), truncated."""

    @staticmethod
    def assert_matches(got, want):
        # Entries near zero carry the rounding of the whole sum, so the
        # absolute tolerance scales with the largest entry.
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("grid_points, modes", [(63, 16), (255, 64), (255, 8)])
    @pytest.mark.parametrize("batch", [(), (5,), (2, 5)])
    def test_match_dst_oracle(self, grid_points, modes, batch):
        ws = GridWorkspace(grid_points=grid_points)
        rng = np.random.default_rng(grid_points + modes + len(batch))
        coeffs = rng.standard_normal(batch + (modes,))
        values = rng.standard_normal(batch + (grid_points,))
        self.assert_matches(
            ws.to_grid(coeffs), dst(coeffs, type=1, n=grid_points, axis=-1) / SQRT2
        )
        oracle = dst(values, type=1, axis=-1) / (SQRT2 * (grid_points + 1))
        interpolant = ws.transforms(modes)[1]
        self.assert_matches(values @ interpolant, oracle[..., :modes])
        np.testing.assert_allclose(
            ws.to_grid(coeffs) @ interpolant, coeffs, rtol=1e-13, atol=1e-13
        )


def at_offset(matrix: np.ndarray, offset: int) -> np.ndarray:
    """A C-ordered copy of ``matrix`` whose data start ``offset`` bytes past
    a 64-byte boundary."""
    buffer = np.empty(matrix.nbytes + 128, dtype=np.uint8)
    start = -buffer.ctypes.data % 64 + offset
    copy = buffer[start : start + matrix.nbytes].view(float).reshape(matrix.shape)
    copy[...] = matrix
    return copy


def assert_aligned_with_the_bytes_of_any_offset(matrix: np.ndarray) -> None:
    """``matrix`` starts on a 64-byte boundary, read-only, and its one-row
    (gemv) and 256-row (GEMM) products have the bytes of copies that start
    8 to 56 bytes past one: alignment moves the products' speed, not their
    rounding."""
    assert matrix.ctypes.data % 64 == 0 and matrix.flags.c_contiguous
    assert not matrix.flags.writeable
    rng = np.random.default_rng(matrix.shape)
    row, rows = rng.standard_normal(matrix.shape[0]), rng.standard_normal((256, matrix.shape[0]))
    want = (row.dot(matrix).tobytes(), (rows @ matrix).tobytes())
    for offset in range(8, 64, 8):
        copy = at_offset(matrix, offset)
        assert copy.ctypes.data % 64 == offset
        assert (row.dot(copy).tobytes(), (rows @ copy).tobytes()) == want, offset


@pytest.mark.parametrize("grid_points, modes", [(63, 16), (255, 64), (255, 8)])
def test_cached_transforms_are_cache_aligned_with_the_bytes_of_any_offset(grid_points, modes):
    # So is the interpolant with the weight row of a one-row step folded in.
    diffusion = MultiplicationDiffusion(modes, (grid_points + 1) // 4)
    assert diffusion.workspace.grid_points == grid_points
    row = np.random.default_rng(modes).uniform(0.5, 1.0, (1, modes))
    weighted = inspect.getclosurevars(diffusion.bind_step(row).step).nonlocals["weighted"]
    assert weighted.tobytes() == (diffusion.interpolant * row[0]).tobytes()
    for matrix in (*GridWorkspace(grid_points).transforms(modes), weighted):
        assert_aligned_with_the_bytes_of_any_offset(matrix)


class TestDefaultWorkspace:
    def test_grid_is_large_enough_with_smooth_dst_length(self):
        # P + 1 has no prime factor above 11 (P = 4 * 64 = 256 would give
        # 257), as when the transforms were FFTs; keeping that rule keeps
        # the collocation grid, and every result computed on it, unchanged.
        for modes in range(1, 129):
            for noise_modes in range(1, 129):
                p = default_workspace(modes, noise_modes).grid_points
                assert p >= 2 * max(modes, noise_modes)
                assert is_11_smooth(p + 1), (modes, noise_modes, p)

    def test_smooth_length_is_scipys_fast_length(self):
        assert [next_smooth(n) for n in range(1, 20001)] == [
            next_fast_len(n) for n in range(1, 20001)
        ]


def test_multiplication_on_grid_values(mult):
    # B(e1)(e1) evaluated pointwise is 2 sin^2(pi x) at the grid nodes.
    ws = mult.workspace()
    e1 = np.eye(64)[0]
    product = ws.to_grid(e1) * ws.to_grid(e1)
    np.testing.assert_allclose(
        product, 2.0 * np.sin(np.pi * ws.nodes) ** 2, atol=1e-12
    )


def test_smoothing_hs_norm_decreases(mult):
    rng = np.random.default_rng(21)
    v = SpectralState(rng.standard_normal(64))
    hs = [smoothed_diffusion_hs_norm(mult, v, 2.0**-k) for k in (6, 8, 10)]
    assert hs[0] < hs[1] < hs[2]


def test_smoothing_hs_norm_rejects_negative_time(mult):
    # e^{At} at t < 0 grows like e^{lambda_N |t|}: 4.7e26 at t = -0.1.
    with pytest.raises(ValueError, match="smoothing time must be >= 0"):
        smoothed_diffusion_hs_norm(mult, mult.initial, -0.1)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda m: SpectralState(np.ones((2, 2))), ValueError,
         "coefficients must form a nonempty 1-d vector"),
        (lambda m: SpectralState(np.array([])), ValueError,
         "coefficients must form a nonempty 1-d vector"),
        (lambda m: GridWorkspace(0), ValueError, "need at least one grid point"),
        (lambda m: dataclasses.replace(m, eigenvalues=np.ones((2, 2))), ValueError,
         "eigenvalues must form a nonempty vector"),
        (lambda m: dataclasses.replace(m, gamma=1.0), BadParameterError,
         "gamma must lie in (0, 1), got 1.0"),
        (lambda m: dataclasses.replace(m, delta=0.6), BadParameterError,
         "delta must lie in (0, 1/2], got 0.6"),
        (lambda m: heat_multiplicative_model(0, 8), BadParameterError,
         "mode counts must be >= 1"),
        (lambda m: heat_additive_model(8, 0), BadParameterError, "mode counts must be >= 1"),
        (lambda m: apply_diffusion(m, 1, m.initial, [], 1), ValueError,
         "order 1 needs exactly 1 argument states"),
    ],
    ids=["matrix-state", "empty-state", "no-grid", "matrix-eigenvalues", "gamma", "delta",
         "mult-modes", "add-noise-modes", "diffusion-args"],
)
def test_malformed_model_input_is_rejected(build, error, message, mult):
    with pytest.raises(error, match=re.escape(message)):
        build(mult)
