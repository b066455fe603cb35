"""Spectral models: transforms, diffusion oracles, semigroup, initial data."""

import dataclasses
import re
import tracemalloc

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
    bind_end_sum,
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
    """The end-weighted sum the engine takes of a diffusion node, the
    model's fused ``bind_sum`` where it has one and else ``bind_end_sum``
    of the bound rows, gives the bytes of the rows reduced by the einsum
    with the end weights, at orders 0 and 1, with ``None`` for both where
    the derivative vanishes."""

    @staticmethod
    def check(model, order, lead, substeps):
        diffusion, modes = model.diffusion, model.modes
        rng = np.random.default_rng([order, substeps, modes, model.noise_modes, len(lead)])
        raw = rng.standard_normal(lead + (substeps, model.noise_modes))
        noise = diffusion.prepare_noise(raw)
        base = rng.standard_normal(lead + (modes,))
        args = [rng.standard_normal(lead + (substeps, modes))][:order]
        weights = rng.uniform(0.5, 1.0, (modes, substeps))
        bound = diffusion.bind_rows(order)
        fused = getattr(diffusion, "bind_sum", None)
        total = fused and fused(order, weights)
        if bound is None:
            assert total is None
            return
        rows = bound(base, args, noise)
        want = np.einsum("ns,...sn->...n", weights, rows)
        sums = [bind_end_sum(weights)(rows)]
        if fused is not None:
            sums.append(total(base, args, noise))
        for got in sums:
            assert got.shape == want.shape == lead + (modes,)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("lead, substeps, modes, noise_modes", SHAPES)
    def test_diagonal(self, order, lead, substeps, modes, noise_modes):
        self.check(heat_additive_model(modes, noise_modes), order, lead, substeps)

    # The multiplication rows live on the grid: windows above 2^21 grid
    # values (16 MiB; the two batched 8192-substep windows at 64 modes)
    # are left out to keep the test's memory small.
    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize(
        "lead, substeps, modes, noise_modes",
        [shape for shape in SHAPES if grid_values(*shape) <= 2**21],
    )
    def test_multiplication(self, order, lead, substeps, modes, noise_modes):
        # Its sum is only its rows reduced: the engine keeps the rows.
        model = heat_multiplicative_model(modes, noise_modes)
        assert not hasattr(model.diffusion, "bind_sum")
        self.check(model, order, lead, substeps)


class TestBoundRows:
    """The bound rows' one-row ``out`` and the batched order-1 rows."""

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("model_name", ["heat-mult", "heat-add"])
    def test_a_one_row_window_writes_the_row_into_out(self, lead, model_name):
        # The stepping loop at h = h_fine has the order-0 row written into
        # the node's value; it has the bytes of the fresh rows' one row.
        model = build_model(model_name, 16, 8, 0.005)
        bound = model.diffusion.bind_rows(0)
        rng = np.random.default_rng(len(lead))
        noise = model.diffusion.prepare_noise(rng.standard_normal(lead + (1, 8)))
        base = rng.standard_normal(lead + (16,))
        want = bound(base, (), noise)[..., 0, :]
        out = np.full(lead + (16,), np.nan)
        assert bound(base, (), noise, out) is out
        assert out.tobytes() == want.tobytes()

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
