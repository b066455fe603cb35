"""Spectral Galerkin representation of the model data (A, F, B, u0).

States live in the sine eigenbasis e_i(x) = sqrt(2) sin(i pi x) on (0, 1),
truncated to N modes, so the H-norm of a state is the Euclidean norm of its
coefficient vector.  The linear part is diagonal (eigenvalues lambda_i > 0),
which makes the semigroup exact per mode.

Each diffusion operator is built on its model's truncation (N, M) and
chooses how to discretise B; callers pass it no grid and no mode count.
The multiplication model collocates on the grid of ``default_workspace(N,
M)``, which it owns: both factors go to the grid x_m = m/(P+1), are
multiplied pointwise, and the product is replaced by the sine coefficients
of its odd trigonometric interpolant on that grid, truncated to N modes.
This is not the Galerkin projection: a product of two sine series is a
cosine series, whose sine coefficients <e_i e_k, e_n> are an infinite
series that no grid resolves exactly.  The collocated coefficients
converge to them like P^-4; ``tests/test_models.py`` bounds the error at
the default P = 255 far below the Monte-Carlo error of the order studies.
The grid transforms are products with cached sine matrices (see
:class:`GridWorkspace`), equal to the type-I DST up to rounding.

Two concrete models are provided: the heat equation with multiplication
noise (B(v)(w) = v*w pointwise, F = 0, lambda_i = pi^2 i^2) and an additive
variant whose diffusion is a fixed diagonal operator with decaying weights,
used as an exactly solvable test instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Protocol, Sequence

import numpy as np

SQRT2 = float(np.sqrt(2.0))


class ModelError(Exception):
    pass


class BadParameterError(ModelError):
    pass


class OutOfRangeError(ModelError):
    pass


@dataclass(frozen=True)
class SpectralState:
    """Coefficient vector of a function against the sine eigenbasis."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _adopt(cls, coeffs: np.ndarray) -> "SpectralState":
        """The state of ``coeffs``, a finite float64 vector the caller made
        and writes no more, frozen in place: no conversion, check or copy."""
        coeffs.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "coeffs", coeffs)
        return state

    @property
    def modes(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        """H-norm; equals the grid L2 norm by Parseval."""
        return float(np.linalg.norm(self.coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpectralState):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self) -> int:
        # Adding 0.0 turns -0.0 into 0.0, which compares equal to it.
        return hash((self.coeffs + 0.0).tobytes())


def _aligned(array: np.ndarray) -> np.ndarray:
    """A read-only C-ordered copy of ``array`` whose data start on a 64-byte
    boundary, a cache line: BLAS streams the products' matrices faster from
    there, with the same bytes."""
    buffer = np.empty(array.nbytes + 64, dtype=np.uint8)
    start = -buffer.ctypes.data % 64
    out = buffer[start : start + array.nbytes].view(array.dtype).reshape(array.shape)
    out[...] = array
    out.flags.writeable = False
    return out


# A model needs at most three (P, modes) pairs; the bound keeps a sweep over
# sizes from holding every matrix it has built.
@lru_cache(maxsize=16)
def _sine_matrix(grid_points: int, modes: int) -> np.ndarray:
    """[sqrt(2) sin(i pi x_m)], i = 1..modes, m = 1..P: coefficients to grid
    values, 64-byte aligned.  The index product i m is reduced mod 2(P+1)
    before the sine, so high modes are as accurate as low ones."""
    p1 = grid_points + 1
    phase = np.outer(np.arange(1, modes + 1), np.arange(1, p1)) % (2 * p1)
    return _aligned(SQRT2 * np.sin(np.pi * phase / p1))


@lru_cache(maxsize=16)
def _interpolant_matrix(grid_points: int, modes: int) -> np.ndarray:
    """The sine matrix transposed over P + 1, 64-byte aligned: grid values
    to the first ``modes`` coefficients of their odd interpolant."""
    return _aligned(_sine_matrix(grid_points, modes).T / (grid_points + 1))


@dataclass(frozen=True)
class GridWorkspace:
    """Collocation grid x_m = m/(P+1), m = 1..P, with its sine transforms:
    the (N, P) matrix [sqrt(2) sin(i pi x_m)], coefficients to grid values,
    and its (P, N) transpose over P + 1, grid values to the coefficients of
    their odd interpolant.  On the grid the sine vectors are orthogonal
    with squared norm P + 1, so the second is the left inverse of the
    first.  Both are cached per (P, N) for the process."""

    grid_points: int

    def __post_init__(self) -> None:
        if self.grid_points < 1:
            raise ValueError("need at least one grid point")

    @property
    def nodes(self) -> np.ndarray:
        """The grid points x_1..x_P."""
        p = self.grid_points
        return np.arange(1, p + 1) / (p + 1)

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Values of sum_i c_i e_i at the grid nodes (works on batches)."""
        coeffs = np.asarray(coeffs, dtype=float)
        n = coeffs.shape[-1]
        if n > self.grid_points:
            raise ValueError(f"{n} modes exceed {self.grid_points} grid points")
        return coeffs @ _sine_matrix(self.grid_points, n)

    def transforms(self, modes: int) -> tuple[np.ndarray, np.ndarray]:
        """The sine matrix of ``to_grid`` and the interpolant matrix, grid
        values to the first ``modes`` coefficients, for states of ``modes``
        modes."""
        if modes > self.grid_points:
            raise ValueError(f"{modes} modes exceed {self.grid_points} grid points")
        return _sine_matrix(self.grid_points, modes), _interpolant_matrix(self.grid_points, modes)

    def quadrature_l2_norm(self, values: np.ndarray) -> float:
        """Grid L2 norm, exact for sine polynomials of degree <= P."""
        values = np.asarray(values, dtype=float)
        return float(np.sqrt(np.sum(values * values) / (self.grid_points + 1)))


def next_smooth(target: int) -> int:
    """The least n >= target, for target >= 1, with no prime factor above
    11: the length ``scipy.fft.next_fast_len`` gives for complex FFTs."""
    n = target
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def default_workspace(modes: int, noise_modes: int = 0) -> GridWorkspace:
    """At least 4 max(N, M) - 1 grid points, with P + 1 11-smooth.

    P + 1 = ``next_smooth(4 max(N, M))`` dates from FFT-based transforms
    and stays so that the collocation grid, and every number computed on
    it, is unchanged (P = 255 for N = M = 64).
    """
    return GridWorkspace(grid_points=next_smooth(4 * max(modes, noise_modes)) - 1)


class DriftOperator(Protocol):
    """F and its derivatives, bound once per plan node: ``bind_value()``
    returns ``base -> F(base)`` and ``bind_rows(order)`` returns ``(base,
    arg_rows) -> rows``, F^(k)(base)(args) for argument trajectories of
    shape (..., S, N).  None means identically zero."""

    def bind_value(self) -> Callable[[np.ndarray], np.ndarray] | None: ...

    def bind_rows(
        self, order: int
    ) -> Callable[[np.ndarray, Sequence[np.ndarray]], np.ndarray] | None: ...


#: A bound B^(k): ``(base, arg_rows, noise) -> rows``, or ``(base, arg_rows,
#: noise, out)`` writing their weighted sum into ``out``.
BoundDiffusion = Callable[..., np.ndarray | None]


class DiffusionOperator(Protocol):
    """B and its derivatives against batches of noise functions, built for
    the N = ``modes`` state and M = ``noise_modes`` noise modes of one model.

    ``prepare_noise`` turns noise coefficient rows into the form the bound
    functions consume, one row per noise function, so a window of
    increments is prepared once and sliced.  Leading axes are batch axes: a
    base of shape (..., N) goes with noise rows of shape (..., S, ·).

    ``bind_rows(order)`` returns ``(base, arg_rows, noise) -> rows``, the
    rows B^(k)(base)(args)(xi_s), (..., S, N), as a fresh array the caller
    may keep, or None where B^(k) is identically zero.

    An operator whose end-weighted sum is cheaper than its rows may also
    provide ``bind_sum(order, weights)``: ``(base, arg_rows, noise, out)``,
    which writes sum_s weights[n, s] B^(k)(base)(args)(xi_s)[n] over the
    first S noise rows, for (N, S) weights, into ``out``, (..., N).  It
    returns None where it does not fuse that order and width, and always
    where ``bind_rows`` is None; the caller then sums the rows.
    """

    modes: int
    noise_modes: int

    def prepare_noise(self, noise_rows: np.ndarray) -> np.ndarray: ...

    def bind_rows(self, order: int) -> BoundDiffusion | None: ...


def bind_end_sum(weights: np.ndarray) -> Callable[..., np.ndarray]:
    """``(rows, out=None) -> sum_s weights[n, s] rows[..., s, n]`` over the
    first S rows, for (N, S) weights and at least S rows, written into
    ``out``, (..., N), where it is given and else a new array."""
    substeps = weights.shape[1]
    return lambda rows, out=None: np.einsum(
        "ns,...sn->...n", weights, rows[..., :substeps, :], out=out
    )


class ZeroDrift:
    """F identically zero, with all derivatives zero."""

    def bind_value(self) -> None:
        return None

    def bind_rows(self, order) -> None:
        return None


class MultiplicationDiffusion:
    """B(v)(w) = v*w pointwise, collocated on the grid of
    ``default_workspace(N, M)``, P >= 4 max(N, M) - 1, so no frequency of a
    product folds back onto the kept modes.  The prepared noise is the
    noise functions' grid values, and the bound rows are two products with
    the sine matrices fetched at construction.  A batch's products are
    stacks of its paths' products, so a path's rows have the same bytes in
    any batch.  B' does not depend on v, and every order n >= 2 is zero.
    The order-0 sum of a one-row window (``bind_sum``) is ((v S) * xi)
    (Ip * w), the weight column folded into a copy of the interpolant once
    per binding; it equals the row times the column up to rounding.
    """

    def __init__(self, modes: int, noise_modes: int):
        self.modes, self.noise_modes = modes, noise_modes
        self.workspace = default_workspace(modes, noise_modes)
        self.sine, self.interpolant = self.workspace.transforms(modes)

    def prepare_noise(self, noise_rows):
        return self.workspace.to_grid(noise_rows)

    def bind_rows(self, order):
        if order >= 2:
            return None
        sine, interpolant = self.sine, self.interpolant
        if order == 0:
            def rows(base, arg_rows, noise):
                # One path's products go to BLAS through ndarray.dot, which
                # costs less per call than @ and than np.dot's dispatch; a
                # batch stays a stack of one-path products.
                if base.ndim == 1:
                    return (base.dot(sine) * noise).dot(interpolant)
                return ((base[..., None, :] @ sine) * noise) @ interpolant
        else:
            def rows(base, arg_rows, noise):
                multiplier = arg_rows[0]
                if multiplier.shape[:-1] != noise.shape[:-1]:  # a state against noise rows
                    return ((multiplier @ sine) * noise) @ interpolant
                # Path by path through one (S, P) grid buffer, not a
                # window-sized multiplier of the whole batch.
                out = np.empty(noise.shape[:-1] + (interpolant.shape[1],))
                grid = np.empty(noise.shape[-2:])
                for path in np.ndindex(noise.shape[:-2]):
                    np.matmul(multiplier[path], sine, out=grid)
                    grid *= noise[path]
                    np.matmul(grid, interpolant, out=out[path])
                return out
        return rows

    def bind_sum(self, order, weights):
        if order != 0 or weights.shape[1] != 1:
            return None
        sine, weighted = self.sine, _aligned(self.interpolant * weights[:, 0])

        def weighted_sum(base, arg_rows, noise, out):
            # The grid row takes the noise in place; a batch is a stack of
            # one-path products, as in the rows.
            if base.ndim == 1:
                grid = base.dot(sine)
                grid *= noise[0]
                grid.dot(weighted, out=out)
            else:
                grid = base[..., None, :] @ sine
                grid *= noise[..., :1, :]
                np.matmul(grid, weighted, out=out[..., None, :])

        return weighted_sum


class DiagonalDiffusion:
    """Constant B mapping noise mode k to b_k times state mode k, for
    states of ``modes`` modes and one noise mode per weight; it needs no
    grid, and the prepared noise is the rows themselves, with no copy.  Its
    end-weighted sum (``bind_sum``) is one contraction over views of the
    first S noise rows, with no rows."""

    def __init__(self, weights: np.ndarray, modes: int):
        self.weights = np.asarray(weights, dtype=float)
        self.modes = modes
        self.noise_modes = self.weights.size

    def prepare_noise(self, noise_rows):
        return np.atleast_2d(np.asarray(noise_rows, dtype=float))

    def bind_rows(self, order):
        if order >= 1:
            return None
        modes, k = self.modes, min(self.modes, self.weights.size)
        b = self.weights[:k]

        def rows(base, arg_rows, noise):
            out = np.empty(noise.shape[:-1] + (modes,))
            out[..., k:] = 0.0
            np.multiply(noise[..., :k], b, out=out[..., :k])
            return out

        return rows

    def bind_sum(self, order, weights):
        # One contraction over views into the first S substeps and the first
        # min(N, M) modes: no rows.
        if order >= 1:
            return None
        k = min(self.modes, self.weights.size)
        b, w, substeps = self.weights[:k], weights[:k], weights.shape[1]

        def weighted_sum(base, arg_rows, noise, out):
            out[..., k:] = 0.0
            np.einsum("n,...sn,ns->...n", b, noise[..., :substeps, :k], w, out=out[..., :k])

        return weighted_sum


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Immutable bundle of the model data over a fixed truncation; models
    compare and hash by identity."""

    name: str
    eigenvalues: np.ndarray
    drift: DriftOperator
    diffusion: DiffusionOperator
    gamma: float
    delta: float
    noise_modes: int
    initial: SpectralState

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must form a nonempty vector")
        if not (np.isfinite(lam).all() and lam.min() > 0.0):
            raise ValueError("eigenvalues must be finite and strictly positive")
        if not 0.0 < self.gamma < 1.0:
            raise BadParameterError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.delta <= 0.5:
            raise BadParameterError(f"delta must lie in (0, 1/2], got {self.delta}")
        built = (self.diffusion.modes, self.diffusion.noise_modes)
        if built != (lam.size, self.noise_modes):
            raise ModelError(
                f"diffusion is built for {built[0]} state and {built[1]} noise modes, "
                f"the model has {lam.size} and {self.noise_modes}"
            )
        lam = lam.copy()
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def modes(self) -> int:
        return self.eigenvalues.size

    def workspace(self) -> GridWorkspace:
        """The default grid of the truncation, which the multiplication
        model owns; ``engine.step`` accepts it or None, no other grid."""
        return default_workspace(self.modes, self.noise_modes)


def dirichlet_eigenvalues(modes: int) -> np.ndarray:
    """pi^2 i^2 for i = 1..modes, the Dirichlet eigenvalues of -d^2/dx^2 on (0, 1)."""
    i = np.arange(1, modes + 1, dtype=float)
    return (np.pi * i) ** 2


def initial_condition(kind: str, modes: int) -> SpectralState:
    """Deterministic start states: a single mode or the bump x(1-x).

    The sine series of x(1-x) has coefficients 4*sqrt(2)/(pi^3 i^3) on odd
    modes and zero on even modes, so the state sits comfortably inside the
    fractional domains used by the models.
    """
    if kind == "first_mode":
        coeffs = np.zeros(modes)
        coeffs[0] = 1.0
        return SpectralState(coeffs)
    if kind == "smooth_poly":
        i = np.arange(1, modes + 1, dtype=float)
        coeffs = 4.0 * SQRT2 / (np.pi**3 * i**3)
        coeffs[1::2] = 0.0
        return SpectralState(coeffs)
    raise BadParameterError(f"unknown initial condition {kind!r}")


def heat_multiplicative_model(
    modes: int = 64,
    noise_modes: int = 64,
    r: float = 0.005,
) -> ModelSpec:
    """Dirichlet heat equation with pointwise multiplication noise.

    lambda_i = pi^2 i^2, F = 0, B(v)(w) = v*w; the admissible exponents are
    gamma = 1/4 - r and delta = 1/4 for an arbitrarily small r > 0.
    """
    if modes < 1 or noise_modes < 1:
        raise BadParameterError("mode counts must be >= 1")
    if not 0.0 < r < 0.25:
        raise BadParameterError(f"r must lie in (0, 1/4), got {r}")
    return ModelSpec(
        name="heat-mult",
        eigenvalues=dirichlet_eigenvalues(modes),
        drift=ZeroDrift(),
        diffusion=MultiplicationDiffusion(modes, noise_modes),
        gamma=0.25 - r,
        delta=0.25,
        noise_modes=noise_modes,
        initial=initial_condition("smooth_poly", modes),
    )


def heat_additive_model(modes: int = 64, noise_modes: int = 64) -> ModelSpec:
    """Heat equation with a fixed diagonal diffusion, weights b_k = 1/k.

    The summable weights keep the Hilbert-Schmidt norm of e^{At}B bounded
    uniformly in t, so the smoothing exponent delta = 1/2 applies; gamma is
    set to 1/2 as well.  Every stochastic convolution is an independent
    scalar Ornstein-Uhlenbeck integral with a closed-form variance, which
    is what makes this model a useful oracle.
    """
    if modes < 1 or noise_modes < 1:
        raise BadParameterError("mode counts must be >= 1")
    weights = 1.0 / np.arange(1, noise_modes + 1, dtype=float)
    return ModelSpec(
        name="heat-add",
        eigenvalues=dirichlet_eigenvalues(modes),
        drift=ZeroDrift(),
        diffusion=DiagonalDiffusion(weights, modes),
        gamma=0.5,
        delta=0.5,
        noise_modes=noise_modes,
        initial=initial_condition("smooth_poly", modes),
    )


def build_model(name: str, modes: int, noise_modes: int, r: float) -> ModelSpec:
    """The model ``heat-mult`` or ``heat-add`` by name."""
    if name == "heat-mult":
        return heat_multiplicative_model(modes, noise_modes, r=r)
    if name == "heat-add":
        return heat_additive_model(modes, noise_modes)
    raise BadParameterError(
        f"unknown model {name!r}; available: ['heat-add', 'heat-mult']"
    )


def apply_semigroup(state: SpectralState, t: float, spec: ModelSpec) -> SpectralState:
    """e^{At} applied exactly: each mode decays by exp(-lambda_i t)."""
    if t < 0.0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    return SpectralState(np.exp(-spec.eigenvalues * t) * state.coeffs)


def _rows_against_unit_noise(
    spec: ModelSpec, order: int, base: SpectralState, args: Sequence[SpectralState],
    noise_rows: np.ndarray,
) -> np.ndarray | None:
    """The rows B^(order)(base)(args)(xi_s), (S, N), for the noise
    coefficient rows xi_s of ``noise_rows``, (S, M); None where the
    derivative vanishes identically."""
    noise = spec.diffusion.prepare_noise(noise_rows)
    rows = spec.diffusion.bind_rows(order)
    return None if rows is None else rows(base.coeffs, [a.coeffs for a in args], noise)


def apply_diffusion(
    spec: ModelSpec, order: int, base: SpectralState, args: Sequence[SpectralState],
    noise_mode: int,
) -> SpectralState:
    """Coefficients of B^(order)(base)(args...) applied to basis vector e_k.

    Orders where the model's derivative vanishes identically return the zero
    state; only a negative order or a noise mode outside 1..M is an error.
    """
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    if not 1 <= noise_mode <= spec.noise_modes:
        raise OutOfRangeError(
            f"noise mode {noise_mode} outside 1..{spec.noise_modes}"
        )
    if len(args) != order:
        raise ValueError(f"order {order} needs exactly {order} argument states")
    unit = np.zeros(spec.noise_modes)
    unit[noise_mode - 1] = 1.0
    rows = _rows_against_unit_noise(spec, order, base, args, unit[None, :])
    if rows is None:
        return SpectralState(np.zeros(spec.modes))
    return SpectralState(rows[0])


def diffusion_matrix(spec: ModelSpec, base: SpectralState) -> np.ndarray:
    """Matrix [ <B(base) e_k, e_i> ]_{i,k} over the N x M truncation."""
    rows = _rows_against_unit_noise(spec, 0, base, [], np.eye(spec.noise_modes))
    if rows is None:
        return np.zeros((spec.modes, spec.noise_modes))
    return rows.T


def smoothed_diffusion_hs_norm(spec: ModelSpec, base: SpectralState, t: float) -> float:
    """Hilbert-Schmidt norm of e^{At} B(base) over the truncation, t >= 0."""
    if t < 0.0:
        raise ValueError(f"smoothing time must be >= 0, got {t}")
    mat = diffusion_matrix(spec, base)
    decay = np.exp(-2.0 * spec.eigenvalues * t)
    return float(np.sqrt(np.sum(decay[:, None] * mat * mat)))


def convolution_variances(spec: ModelSpec, h: float) -> np.ndarray:
    """Per-mode variance of int_0^h e^{A(h-s)} B dW_s for the diagonal model.

    By the Ito isometry the i-th mode is Gaussian with variance
    b_i^2 (1 - e^{-2 lambda_i h}) / (2 lambda_i); modes beyond the noise
    truncation carry no variance.  A negative h is an error.
    """
    if h < 0.0:
        raise ValueError(f"convolution time must be >= 0, got {h}")
    diffusion = spec.diffusion
    if not isinstance(diffusion, DiagonalDiffusion):
        raise ModelError("closed-form variances need the diagonal model")
    lam = spec.eigenvalues
    out = np.zeros(spec.modes)
    keep = min(spec.modes, diffusion.weights.size)
    b = diffusion.weights[:keep]
    out[:keep] = b * b * -np.expm1(-2.0 * lam[:keep] * h) / (2.0 * lam[:keep])
    return out
