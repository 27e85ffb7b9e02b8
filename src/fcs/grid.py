"""Radial grid, quadrature, fields, and the spectral transform.

The grid is uniform on (0, R) with nodes r_j = j R/(M+1); quadrature weights
w_j = omega_{N-1} r_j^{N-1} h turn node sums into N-dimensional radial
integrals.  Fields vanish at r = R by construction of the transform basis,
which is consistent with the compactly-decaying states everything here
targets.

Two transform engines diagonalize the fractional Laplacian; they share
``_Engine``, the one home of the k-space calculus (k^(2s), (-Delta)^s and
its inverse, the dual metric 1/(1 + k^(2s)) and the dense matrix of
(-Delta)^s):

* N = 3: the radial Fourier transform reduces exactly to a type-I discrete
  sine transform of r u(r); the discrete map is unitary for the quadrature
  inner product, so the Plancherel identity holds to rounding.  The DST-I
  (and the DCT-I of the dense matrix) is one ``numpy.fft`` real FFT of an
  odd (even) extension, so the N = 3 path loads no compiled scipy.
* other N: a dense Fourier-Bessel matrix.  Samples of the Dirichlet modes
  r^(1-N/2) J_{N/2-1}(k_m r) are orthonormalized against the discrete inner
  product (Loewdin), which again makes Plancherel exact by construction; the
  mode wavenumbers keep their continuum values j_{N/2-1,m}/R, from McMahon's
  expansion and Newton steps (within an ulp of ``jn_zeros`` for N = 2, 4).
  The Bessel functions come from ``scipy.special``, imported on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import ExponentTable, ProblemParams, compute_exponents, sphere_area

__all__ = [
    "RadialGrid",
    "Field",
    "SpectralField",
    "make_grid",
    "forward_transform",
    "lp_norm",
]

DECAY_FRACTION = 0.8      # tail window used for the boundary-decay flag
DECAY_RATIO = 1e-8


class GridMismatchError(ValueError):
    """Operands live on different grids."""


@dataclass(eq=False)
class RadialGrid:
    """Uniform radial quadrature grid on (0, R) for a parameter triple."""

    params: ProblemParams
    R: float
    M: int
    h: float = dc_field(init=False)
    r: np.ndarray = dc_field(init=False, repr=False)
    w: np.ndarray = dc_field(init=False, repr=False)
    exps: ExponentTable = dc_field(init=False, repr=False)  # q*, theta, sigma, ... of ``params``
    # transform engines and kernels cached here hold arrays, never the grid:
    # a reference back would leave a dead grid and its M x M matrices to the
    # cycle collector
    _caches: dict = dc_field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.R) or self.R <= 0.0:
            raise ValueError(f"cutoff radius R must be finite and positive, got {self.R!r}")
        if not isinstance(self.M, int) or self.M < 16:
            raise ValueError(f"interior node count M must be an integer >= 16, got {self.M!r}")
        self.h = self.R / (self.M + 1)
        self.r = self.h * np.arange(1, self.M + 1, dtype=float)
        self.w = sphere_area(self.params.N) * self.r ** (self.params.N - 1) * self.h
        self.exps = compute_exponents(self.params)

    def transform(self) -> "_Engine":
        eng = self._caches.get("transform")
        if eng is None:
            eng = self._caches["transform"] = (_SineEngine if self.params.N == 3 else _BesselEngine)(self)
        return eng

    @property
    def k(self) -> np.ndarray:
        """Wavenumbers of the transform basis."""
        return self.transform().k

    @property
    def k2s(self) -> np.ndarray:
        """The fractional symbol k^(2s) at the wavenumbers (read-only, built once)."""
        return self.transform().k2s

    def same_as(self, other: "RadialGrid") -> bool:
        return (
            self.params == other.params
            and self.R == other.R
            and self.M == other.M
        )

    def field(self, values: np.ndarray) -> "Field":
        return Field(self, np.asarray(values, dtype=float))

    def zero_field(self) -> "Field":
        return Field(self, np.zeros(self.M))

    def summary(self) -> dict:
        p = self.params
        return {"N": p.N, "s": p.s, "alpha": p.alpha, "R": self.R, "M": self.M}


def make_grid(params: ProblemParams, R: float, M: int) -> RadialGrid:
    """Build the quadrature grid; rejects non-finite R and M < 16."""
    return RadialGrid(params, R, M)


@dataclass(eq=False)
class Field:
    """A real radial function sampled on the grid nodes."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.M,):
            raise ValueError(
                f"field has {self.values.shape} values for an M={self.grid.M} grid"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("field values must be finite")

    @property
    def boundary_decay(self) -> bool:
        """True when the tail beyond 0.8 R is negligible relative to the peak.

        Scaling with t > 1 reads samples beyond the cutoff and requires this.
        """
        peak = float(np.max(np.abs(self.values)))
        if peak == 0.0:
            return True
        tail = self.grid.r > DECAY_FRACTION * self.grid.R
        return float(np.max(np.abs(self.values[tail]))) < DECAY_RATIO * peak

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values)


def _check_same_grid(a, b) -> None:
    if not a.grid.same_as(b.grid):
        raise GridMismatchError("fields live on different grids")


@dataclass(eq=False)
class SpectralField:
    """Transform coefficients of a field at the grid's wavenumbers.

    Coefficients are stored in the Plancherel normalization: the sum of
    squared coefficients equals the quadrature L^2 norm of the field exactly.
    """

    grid: RadialGrid
    coefficients: np.ndarray


def _toeplitz_minus_hankel(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """diag(1/r) [c(|i-j|) - c(i+j)] diag(r), i, j = 1..M, from c(0..2M); both
    cores are strided views, so the subtraction is the only M x M allocation."""
    M = r.size
    toeplitz = sliding_window_view(np.concatenate((c[M - 1:0:-1], c[:M])), M)[::-1]
    L = np.subtract(toeplitz, sliding_window_view(c[2:2 * M + 1], M))
    L *= (1.0 / r)[:, None]
    L *= r[None, :]
    return L


class _Engine:
    """k-space calculus on coefficients b = forward(u); engines add ``forward``,
    ``inverse`` and ``dense_lap``.  ``metric`` divides by ``_k_den`` = 1 + k^(2s)
    (a reciprocal would round differently).  Discrete Plancherel (sum b^2 =
    sum w u^2) is relied on too, by the transform of a residual in
    ``operators.dual_norm``, and by ``solvers._krylov_step``: its GMRES
    minimizes the Euclidean norm of coefficients, which is the quadrature
    w-norm of the field only through Plancherel.  The solvers' iterations
    also rely on forward(inverse(b)) = b to rounding: a first-order trial
    carries the coefficients u_b - eta r of its node values u - eta
    inverse(r) untransformed, and GMRES iterates on coefficients.  An engine
    that is not an orthogonal pair (a collocation transform, say) would have
    to revisit both."""

    def __init__(self, k: np.ndarray, s: float):
        self.k = k
        self.k2s = k ** (2.0 * s)
        self.k2s.flags.writeable = False
        self._k_den = 1.0 + self.k2s

    def symbol(self, b: np.ndarray) -> np.ndarray:
        """k^(2s) b: the coefficients of (-Delta)^s u."""
        return self.k2s * b

    def unsymbol(self, b: np.ndarray) -> np.ndarray:
        """b / k^(2s): the coefficients of (-Delta)^(-s) u, the principal
        symbol's inverse with no length scale (every k_m > 0)."""
        return b / self.k2s

    def lap(self, b: np.ndarray) -> np.ndarray:
        """(-Delta)^s at the nodes."""
        return self.inverse(self.symbol(b))

    def seminorm_sq(self, b: np.ndarray) -> float:
        """sum_m k_m^(2s) b_m^2."""
        return float((self.k2s * b * b).sum())

    def dual(self, a: np.ndarray, b: np.ndarray) -> float:
        """The dual inner product sum_m a_m b_m / (1 + k_m^(2s))."""
        return float((a * b / self._k_den).sum())

    def metric(self, b: np.ndarray) -> np.ndarray:
        """b / (1 + k^(2s)): the dual vector b as a field's coefficients."""
        return b / self._k_den


class _SineEngine(_Engine):
    """Exact DST-I pair for N = 3: u <-> sqrt(4 pi h) DST1(r u).

    The orthonormal DST-I of length M is the imaginary part of one real FFT
    (``numpy.fft``) of the odd extension (0, x, 0, -reversed x), of length
    2(M+1), scaled by -1/sqrt(2(M+1)); the extension is written into a buffer
    the engine owns, so one engine serves one thread at a time.
    """

    def __init__(self, grid: RadialGrid):
        super().__init__(math.pi / grid.R * np.arange(1, grid.M + 1, dtype=float), grid.params.s)
        M = grid.M
        self.r = grid.r
        self._c = math.sqrt(4.0 * math.pi * grid.h)
        self._cr = self._c * self.r
        self._odd = np.zeros(2 * (M + 1))
        self._spec = np.empty(M + 2, dtype=complex)
        # pocketfft's orthonormal factor, rounded from long double as scipy.fft
        # rounds it: sqrt(0.5/(M+1)) is one ulp off it at M = 29, 48, 640, ...
        self._scale = -float(1.0 / np.sqrt(np.longdouble(2 * (M + 1))))

    def _dst(self) -> np.ndarray:
        """The orthonormal DST-I of ``_odd[1:M+1]``, once ``_odd`` holds its odd extension."""
        M = self.r.size
        np.negative(self._odd[M:0:-1], out=self._odd[M + 2:])
        np.fft.rfft(self._odd, out=self._spec)
        return self._spec.imag[1:M + 1] * self._scale

    def forward(self, values: np.ndarray) -> np.ndarray:
        np.multiply(self.r, values, out=self._odd[1:self.r.size + 1])
        b = self._dst()
        b *= self._c
        return b

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        self._odd[1:self.r.size + 1] = coeffs
        u = self._dst()
        u /= self._cr
        return u

    def dense_lap(self) -> np.ndarray:
        """(-Delta)^s at the nodes: diag(1/r) [c(|i-j|) - c(i+j)] diag(r), c(n) =
        sum_m k_m^(2s) cos(pi m n / (M+1)) / (M+1) from one DCT-I (the real FFT
        of the even extension), c(n) = c(2(M+1) - n)."""
        x = np.concatenate(([0.0], self.k2s, [0.0]))
        c = np.fft.rfft(np.concatenate((x, x[-2:0:-1]))).real / (2.0 * (self.r.size + 1))
        return _toeplitz_minus_hankel(np.concatenate((c, c[-2:0:-1])), self.r)  # c(0..2M+1)


def _bessel_zeros(nu: float, count: int) -> np.ndarray:
    """First ``count`` positive zeros of J_nu, any real order nu >= 0.

    McMahon's expansion (Abramowitz & Stegun 9.5.12) refined by six
    vectorized Newton steps with J_nu' = J_{nu-1} - (nu/x) J_nu.
    """
    b = (np.arange(1, count + 1) + 0.5 * nu - 0.25) * math.pi
    mu, e = 4.0 * nu * nu, (8.0 * b) ** -2
    x = b - (mu - 1.0) / (8.0 * b) * (1.0 + 4.0 * (7.0 * mu - 31.0) / 3.0 * e
                                      + 32.0 * (83.0 * mu * mu - 982.0 * mu + 3779.0) / 15.0 * e * e)
    for _ in range(6):
        f = _bessel_j(nu, x)
        x -= f / (_bessel_j(nu - 1.0, x) - nu * f / x)
    return x


def _bessel_j(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x); for nu = 0 and +-1 from ``j0``/``j1``, about ten times faster
    than ``jv`` and equal to it within 2e-15."""
    from scipy.special import j0, j1, jv

    if nu == 0.0:
        return j0(x)
    if abs(nu) == 1.0:
        return nu * j1(x)
    return jv(nu, x)


class _BesselEngine(_Engine):
    """Dense Fourier-Bessel transform for general N, discretely unitary.

    The M x M samples of J_{N/2-1}(k_m r_j) come from ``_bessel_j``, so N = 2
    and N = 4 take the fast ``j0``/``j1``.
    """

    def __init__(self, grid: RadialGrid):
        from scipy.special import jv

        N = grid.params.N
        nu = N / 2.0 - 1.0
        z = _bessel_zeros(nu, grid.M)
        super().__init__(z / grid.R, grid.params.s)
        # continuum-normalized Dirichlet modes sampled on the nodes
        norm = np.sqrt(sphere_area(N) * grid.R ** 2 / 2.0) * np.abs(jv(nu + 1.0, z))
        x = self.k[None, :] * grid.r[:, None]
        phi = grid.r[:, None] ** (-nu) * _bessel_j(nu, x) / norm[None, :]
        B = phi * np.sqrt(grid.w)[:, None]
        gram = B.T @ B
        evals, evecs = np.linalg.eigh(gram)
        if evals.min() < 1e-8:
            raise ValueError(
                f"Fourier-Bessel basis is numerically rank-deficient on this grid "
                f"(min Gram eigenvalue {evals.min():.2e}); increase M"
            )
        self._Q = B @ (evecs * evals ** -0.5) @ evecs.T
        self._sqrt_w = np.sqrt(grid.w)

    def forward(self, values: np.ndarray) -> np.ndarray:
        return self._Q.T @ (self._sqrt_w * values)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        return (self._Q @ coeffs) / self._sqrt_w

    def dense_lap(self) -> np.ndarray:
        """(-Delta)^s in node coordinates: W^(-1/2) Q diag(k^(2s)) Q^T W^(1/2)."""
        L = (self._Q * self.k2s[None, :]) @ self._Q.T
        return (1.0 / self._sqrt_w)[:, None] * L * self._sqrt_w[None, :]


def forward_transform(u: Field) -> SpectralField:
    """Expand a field over the transform basis (Plancherel normalization)."""
    return SpectralField(u.grid, u.grid.transform().forward(u.values))


def lp_norm(u: Field, p: float) -> float:
    """L^p norm over R^N of the radial field (p = inf gives the max norm)."""
    if p != math.inf and (not math.isfinite(p) or p < 1.0):
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")
    if p == math.inf:
        return float(np.max(np.abs(u.values))) if u.grid.M else 0.0
    return float(np.sum(u.grid.w * np.abs(u.values) ** p)) ** (1.0 / p)
