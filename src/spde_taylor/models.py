"""Spectral Galerkin representation of the model data (A, F, B, u0).

States live in the sine eigenbasis e_i(x) = sqrt(2) sin(i pi x) on (0, 1),
truncated to N modes, so the H-norm of a state is the Euclidean norm of its
coefficient vector.  The linear part is diagonal (eigenvalues lambda_i > 0),
which makes the semigroup exact per mode.

Nonlinear diffusion operators are evaluated by collocation: both factors go
to the grid x_m = m/(P+1), are multiplied pointwise, and the product is
replaced by the sine coefficients of its odd trigonometric interpolant on
that grid, truncated to N modes.  This is not the Galerkin projection.  A
product of two sine series is a cosine series, so its sine coefficients
<e_i e_k, e_n> are an infinite series that no grid of any size resolves
exactly; the collocated coefficients converge to them like P^-4.  Against
the closed-form triple products, the relative error of the N x M diffusion
matrix at the default P = 255 for N = M = 64 is at most 2e-4 for white
base states and 4e-6 for the smooth start state (measured in
``tests/test_models.py``), far below the Monte-Carlo error of the order
studies.

The grid transforms are products with cached sine matrices (see
:class:`GridWorkspace`) and equal the type-I discrete sine transform up to
rounding.  On the single rows of the fine-mesh reference a product is
several times faster than an FFT call, whose cost at these sizes is mostly
dispatch; from about N = 200 up the O(N P) product loses, and no study here
goes above N = 64.

Two concrete models are provided: the heat equation with multiplication
noise (B(v)(w) = v*w pointwise, F = 0, lambda_i = pi^2 i^2) and an additive
variant whose diffusion is a fixed diagonal operator with decaying weights,
used as an exactly solvable test instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol, Sequence

import numpy as np
from scipy.fft import next_fast_len

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
        return hash(self.coeffs.tobytes())


# A model needs at most three (P, modes) pairs; the bound keeps a sweep over
# sizes from holding every matrix it has built.
@lru_cache(maxsize=16)
def _sine_matrix(grid_points: int, modes: int) -> np.ndarray:
    """[sqrt(2) sin(i pi x_m)], i = 1..modes, m = 1..P: coefficients to grid
    values.  The index product i m is reduced mod 2(P+1) before the sine, so
    high modes are as accurate as low ones."""
    p1 = grid_points + 1
    phase = np.outer(np.arange(1, modes + 1), np.arange(1, p1)) % (2 * p1)
    out = SQRT2 * np.sin(np.pi * phase / p1)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def _interpolant_matrix(grid_points: int, modes: int) -> np.ndarray:
    """The sine matrix transposed over P + 1: grid values to the first
    ``modes`` coefficients of their odd interpolant."""
    out = np.ascontiguousarray(_sine_matrix(grid_points, modes).T) / (grid_points + 1)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GridWorkspace:
    """Collocation grid x_m = m/(P+1), m = 1..P, with its sine transforms.

    ``to_grid`` and ``to_coeffs`` are products with the (N, P) matrix
    [sqrt(2) sin(i pi x_m)] and its (P, N) transpose over P + 1, cached per
    (P, N) for the process, so every workspace of one size shares them.  On
    the grid the sine vectors are orthogonal with squared norm P + 1, which
    makes the second the left inverse of the first.  Products of functions
    are collocated on this grid (see the module docstring): the result
    converges to the Galerkin product as P grows but never equals it.
    """

    grid_points: int

    def __post_init__(self) -> None:
        if self.grid_points < 1:
            raise ValueError("need at least one grid point")

    @property
    def nodes(self) -> np.ndarray:
        p = self.grid_points
        return np.arange(1, p + 1) / (p + 1)

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Values of sum_i c_i e_i at the grid nodes (works on batches)."""
        coeffs = np.asarray(coeffs, dtype=float)
        n = coeffs.shape[-1]
        if n > self.grid_points:
            raise ValueError(f"{n} modes exceed {self.grid_points} grid points")
        return coeffs @ _sine_matrix(self.grid_points, n)

    def to_coeffs(self, values: np.ndarray, modes: int) -> np.ndarray:
        """Sine coefficients of the odd trigonometric interpolant, truncated."""
        if modes > self.grid_points:
            raise ValueError(f"{modes} modes exceed {self.grid_points} grid points")
        return np.asarray(values, dtype=float) @ _interpolant_matrix(self.grid_points, modes)

    def quadrature_l2_norm(self, values: np.ndarray) -> float:
        """Grid L2 norm, exact for sine polynomials of degree <= P."""
        values = np.asarray(values, dtype=float)
        return float(np.sqrt(np.sum(values * values) / (self.grid_points + 1)))


def default_workspace(modes: int, noise_modes: int = 0) -> GridWorkspace:
    """At least 4 max(N, M) - 1 grid points, with P + 1 11-smooth.

    P + 1 = ``next_fast_len(4 max(N, M))`` dates from FFT-based transforms
    and stays so that the collocation grid, and every number computed on
    it, is unchanged (P = 255 for N = M = 64).
    """
    return GridWorkspace(grid_points=next_fast_len(4 * max(modes, noise_modes)) - 1)


class DriftOperator(Protocol):
    def value(self, base: np.ndarray) -> np.ndarray | None: ...

    def derivative_rows(
        self, order: int, base: np.ndarray, arg_rows: Sequence[np.ndarray]
    ) -> np.ndarray | None: ...


class DiffusionOperator(Protocol):
    """B and its derivatives against batches of noise functions.

    ``prepare_noise`` turns noise coefficient rows (one row per noise
    function) into the form ``rows_against_noise`` consumes, keeping one
    row per noise function, so a caller can prepare a whole window of
    increments once and hand out row slices of it.  It also checks once
    that the workspace suits states of ``modes`` modes, which
    ``rows_against_noise`` then takes for granted.
    """

    max_order: int | None

    def prepare_noise(
        self, noise_rows: np.ndarray, workspace: GridWorkspace, modes: int
    ) -> np.ndarray: ...

    def rows_against_noise(
        self,
        order: int,
        base: np.ndarray,
        arg_rows: Sequence[np.ndarray],
        noise: np.ndarray,
        workspace: GridWorkspace,
        modes: int,
    ) -> np.ndarray | None: ...


class ZeroDrift:
    """F identically zero, with all derivatives zero."""

    def value(self, base: np.ndarray) -> None:
        return None

    def derivative_rows(self, order, base, arg_rows) -> None:
        return None


class MultiplicationDiffusion:
    """B(v)(w) = v*w pointwise; linear in v, so B' is v-independent.

    The prepared noise is the grid values of the noise functions.
    ``rows_against_noise`` evaluates B^(n)(base)(args)(xi) for that batch of
    noise functions xi, one per row, by collocation; returning ``None``
    means identically zero (every order n >= 2 here).
    """

    max_order: int | None = None

    @staticmethod
    def _check_band(workspace: GridWorkspace, band: int) -> None:
        # An input check, not an accuracy guarantee: below twice the band in
        # grid points, frequencies of the product beyond P + 1 fold back
        # onto the retained ones.
        if workspace.grid_points < 2 * band:
            raise ValueError(
                f"{workspace.grid_points} grid points cannot resolve products "
                f"of {band}-mode functions; need at least {2 * band}"
            )

    def prepare_noise(self, noise_rows, workspace, modes):
        noise_rows = np.asarray(noise_rows)
        self._check_band(workspace, max(modes, noise_rows.shape[-1]))
        return workspace.to_grid(noise_rows)

    def rows_against_noise(self, order, base, arg_rows, noise, workspace, modes):
        if order >= 2:
            return None
        if order == 0:
            multiplier = workspace.to_grid(base)
        else:
            multiplier = workspace.to_grid(np.asarray(arg_rows[0]))
        return workspace.to_coeffs(multiplier * noise, modes)


class DiagonalDiffusion:
    """Constant B mapping noise mode k to b_k times state mode k."""

    max_order: int | None = None

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)

    def prepare_noise(self, noise_rows, workspace, modes):
        return np.atleast_2d(np.asarray(noise_rows, dtype=float))

    def rows_against_noise(self, order, base, arg_rows, noise, workspace, modes):
        if order >= 1:
            return None
        weighted = noise * self.weights[None, :]
        m = self.weights.size
        out = np.zeros(noise.shape[:-1] + (modes,))
        keep = min(m, modes)
        out[..., :keep] = weighted[..., :keep]
        return out


@dataclass(frozen=True)
class ModelSpec:
    """Immutable bundle of the model data over a fixed truncation."""

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
        if lam.min() <= 0.0:
            raise ValueError("eigenvalues must be strictly positive")
        if not 0.0 < self.gamma < 1.0:
            raise BadParameterError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 < self.delta <= 0.5:
            raise BadParameterError(f"delta must lie in (0, 1/2], got {self.delta}")
        lam = lam.copy()
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def modes(self) -> int:
        return self.eigenvalues.size

    def workspace(self) -> GridWorkspace:
        return default_workspace(self.modes, self.noise_modes)


def dirichlet_eigenvalues(modes: int) -> np.ndarray:
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
    initial: str = "smooth_poly",
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
        diffusion=MultiplicationDiffusion(),
        gamma=0.25 - r,
        delta=0.25,
        noise_modes=noise_modes,
        initial=initial_condition(initial, modes),
    )


def heat_additive_model(
    modes: int = 64,
    noise_modes: int = 64,
    initial: str = "smooth_poly",
) -> ModelSpec:
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
        diffusion=DiagonalDiffusion(weights),
        gamma=0.5,
        delta=0.5,
        noise_modes=noise_modes,
        initial=initial_condition(initial, modes),
    )


def build_model(name: str, modes: int, noise_modes: int, r: float) -> ModelSpec:
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


def apply_diffusion(
    spec: ModelSpec,
    order: int,
    base: SpectralState,
    args: Sequence[SpectralState],
    noise_mode: int,
    workspace: GridWorkspace | None = None,
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
    workspace = workspace or spec.workspace()
    unit = np.zeros(spec.noise_modes)
    unit[noise_mode - 1] = 1.0
    rows = spec.diffusion.rows_against_noise(
        order,
        base.coeffs,
        [a.coeffs for a in args],
        spec.diffusion.prepare_noise(unit[None, :], workspace, spec.modes),
        workspace,
        spec.modes,
    )
    if rows is None:
        return SpectralState(np.zeros(spec.modes))
    return SpectralState(rows[0])


def diffusion_matrix(
    spec: ModelSpec, base: SpectralState, workspace: GridWorkspace | None = None
) -> np.ndarray:
    """Matrix [ <B(base) e_k, e_i> ]_{i,k} over the N x M truncation."""
    workspace = workspace or spec.workspace()
    rows = spec.diffusion.rows_against_noise(
        0,
        base.coeffs,
        [],
        spec.diffusion.prepare_noise(np.eye(spec.noise_modes), workspace, spec.modes),
        workspace,
        spec.modes,
    )
    if rows is None:
        return np.zeros((spec.modes, spec.noise_modes))
    return rows.T


def smoothed_diffusion_hs_norm(
    spec: ModelSpec,
    base: SpectralState,
    t: float,
    workspace: GridWorkspace | None = None,
) -> float:
    """Hilbert-Schmidt norm of e^{At} B(base) over the truncation."""
    mat = diffusion_matrix(spec, base, workspace)
    decay = np.exp(-2.0 * spec.eigenvalues * t)
    return float(np.sqrt(np.sum(decay[:, None] * mat * mat)))


def convolution_variances(spec: ModelSpec, h: float) -> np.ndarray:
    """Per-mode variance of int_0^h e^{A(h-s)} B dW_s for the diagonal model.

    By the Ito isometry the i-th mode is Gaussian with variance
    b_i^2 (1 - e^{-2 lambda_i h}) / (2 lambda_i); modes beyond the noise
    truncation carry no variance.
    """
    diffusion = spec.diffusion
    if not isinstance(diffusion, DiagonalDiffusion):
        raise ModelError("closed-form variances need the diagonal model")
    lam = spec.eigenvalues
    out = np.zeros(spec.modes)
    keep = min(spec.modes, diffusion.weights.size)
    b = diffusion.weights[:keep]
    out[:keep] = b * b * -np.expm1(-2.0 * lam[:keep] * h) / (2.0 * lam[:keep])
    return out
