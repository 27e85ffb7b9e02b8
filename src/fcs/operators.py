"""Nonlocal building blocks: the Riesz/Coulomb operators, and field-level
wrappers of the fractional Laplacian, its seminorm, the dual norm and the
dense matrix, all read from the grid's transform engine (``fcs.grid``).

The real-space Riesz kernel is authoritative.  For each grid, and its alpha,
the kernel is built once from the angular average of |x - y|^(alpha-N) over
spheres: a dense M x M matrix, except at N = 3 above ``_DENSE_MAX_M``, where
it is applied by FFT.  The trapezoid rule in the radial variable is
augmented with two Euler-Maclaurin-type corrections:

* a diagonal term removing the O(h^alpha) error produced by the
  |r - rho|^(alpha-1) kink of the angular average at rho = r (the correction
  constant is 2 zeta(1-alpha) h^alpha per Navot's expansion, written in a
  pole-free Gamma form), and
* for N = 2 only, the rho = 0 endpoint term h^2/12 f'(0), which vanishes
  identically for N >= 3.

For N = 3 the angular average is closed-form, and on the uniform grid P is
a Hankel-minus-Toeplitz core of the values (n h)^(alpha-1) between diag(1/r)
and diag(r).  Up to ``_DENSE_MAX_M`` that core is assembled; above it P v
is the convolution of the odd extension of r v with those values, one real
FFT pair of length ~3M (the circulant embedding of a Toeplitz product), and
memory is linear in M.  For N != 3 the angular average is exact on the
diagonal (a Beta function) and off it a graded-panel quadrature, graded
from each pair's distance to the complex singularities of its integrand.
The integrand is bitwise symmetric in (r, rho), so only the upper triangle
of node pairs is integrated and then mirrored.  Energies and gradients need
the operator that is symmetric in the quadrature inner product; one such
operator is kept per kernel.  For N >= 3 it is P itself (W P is symmetric to
rounding; the FFT product serves both); the N = 2 endpoint term breaks the
symmetry, so there it is 0.5 (P + W^-1 P^T W), built once.

The N = 3 path needs numpy and ``math`` only: the kink constant takes
Gamma from ``math`` and zeta from ``_zeta``.  ``scipy.special`` (the Beta
function of the N != 3 diagonal, 1F1 of the closed-form Gaussian
potential) is imported where it is used.

A spectral route (multiplier k^(-alpha) on a zero-padded grid, with the total
mass split off analytically through the closed-form Gaussian potential) is
provided as an independent cross-check of the Fourier convention; it is
calibrated by construction to agree with the kernel path and never used as
the primary evaluator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import Field, RadialGrid, _check_same_grid, _toeplitz_minus_hankel
from .params import riesz_constant, sphere_area

__all__ = [
    "DualField",
    "frac_seminorm_sq",
    "riesz_potential",
    "gaussian_riesz_profile",
    "coulomb_energy",
    "quadrilinear_T",
    "apply_A",
    "apply_B",
    "dual_norm",
]


@dataclass(eq=False)
class DualField:
    """A functional on fields represented by node values rho_j.

    The pairing <rho, v> = sum_j w_j rho_j v_j is the quadrature realization
    of integrating rho against v over R^N.
    """

    grid: RadialGrid
    values: np.ndarray

    def pair(self, v: Field) -> float:
        _check_same_grid(self, v)
        return float(np.sum(self.grid.w * self.values * v.values))


# ---------------------------------------------------------------------------
# fractional Laplacian (spectral)
# ---------------------------------------------------------------------------

def frac_seminorm_sq(u: Field) -> float:
    """Squared Gagliardo-type seminorm, sum_m k_m^(2s) |u_m|^2."""
    eng = u.grid.transform()
    return eng.seminorm_sq(eng.forward(u.values))


def dual_norm(rho) -> float:
    """Discrete negative-order norm: sqrt(sum |rho_m|^2 / (1 + k_m^(2s))).

    Accepts a Field or DualField; used for mesh-robust stopping criteria.
    """
    eng = rho.grid.transform()
    b = eng.forward(rho.values)
    return math.sqrt(eng.dual(b, b))


# ---------------------------------------------------------------------------
# Riesz kernel matrix
# ---------------------------------------------------------------------------

_UNIT_ROUNDOFF = 2.0 ** -53
# Euler-Maclaurin coefficients (2k)! / B_2k of ``_zeta``'s tail, k = 1..12
_EM_COEFFS = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
    -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)


def _zeta(x: float) -> float:
    """The Riemann zeta function at x > 1, by Euler-Maclaurin summation in
    the form of the Cephes Hurwitz zeta(x, 1): the terms n = 1..10, then the
    integral, half-term and Bernoulli corrections of the tail beyond n = 10."""
    s = 1.0
    for n in range(2, 11):
        b = n ** -x
        s += b
        if abs(b / s) < _UNIT_ROUNDOFF:
            return s
    s += b * 10.0 / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    for j, coef in enumerate(_EM_COEFFS):
        a *= x + 2 * j
        b /= 10.0
        t = a * b / coef
        s += t
        if abs(t / s) < _UNIT_ROUNDOFF:
            break
        a *= x + 2 * j + 1
        b /= 10.0
    return s


def _kink_correction_constant(N: int, alpha: float) -> float:
    """Coefficient of the h^alpha diagonal correction (potential units).

    Equals -C_alpha * B(r) * 2 zeta(1-alpha) with B the coefficient of the
    |r - rho|^(alpha-1) singular part of the angular kernel; the product
    zeta(1-alpha) Gamma((1-alpha)/2) is evaluated in a reflection form that
    stays finite at odd integer alpha.
    """
    om2 = sphere_area(N - 1)
    t = (
        2.0
        * (2.0 * math.pi) ** (-alpha)
        * math.gamma(alpha)
        * _zeta(alpha)
        * math.pi
        / math.gamma((1.0 + alpha) / 2.0)
    )
    return (
        -riesz_constant(N, alpha)
        * om2
        * math.gamma((N - 1.0) / 2.0)
        / math.gamma((N - alpha) / 2.0)
        * t
    )


def _angular_kernel_generic(N: int, alpha: float, r: np.ndarray) -> np.ndarray:
    """omega_{N-2} int_0^pi ((r-p)^2 + 4 r p sin^2(t/2))^((alpha-N)/2) sin^(N-2)t dt.

    Only the diagonal is singular, and there the integral is exact:
    omega_{N-2} (2r)^(alpha-N) 2^(N-2) B((alpha-1)/2, (N-1)/2).  Off the
    diagonal the integrand is analytic; its nearest singularities sit at
    t ~ +-i t*, t* = |r - p| / sqrt(r p).  Each such pair is integrated by
    12-point Gauss-Legendre on the panels between the edges pi, pi/2, pi/6,
    ..., e_k = pi / (2 3^(k-1)) and a first panel [0, e_k], with k >= 1 the
    smallest integer such that e_k <= t*/2.  (A top panel [pi/3, pi] would
    leave the nearest singularity within reach of the growth of sin^(N-2)
    off the real axis: 5e-14 relative error at N = 6.)  The pairs are sorted
    by k, so every panel is one slice of pairs with scalar nodes and
    weights.  The integrand is bitwise symmetric in (r, p) -- (a-b)^2 =
    (b-a)^2 and (4a)b = (4b)a since the factor 4 is exact -- so only the
    upper triangle is integrated and then mirrored.
    """
    from scipy.special import beta as sp_beta

    M = r.size
    iu, ju = np.triu_indices(M, 1)
    d2 = (r[iu] - r[ju]) ** 2
    s4 = 4.0 * r[iu] * r[ju]
    # (t*/2)^2 = d2 / s4, so e_k <= t*/2 is 9^k >= (3 pi / 2)^2 s4 / d2
    k = np.ceil(np.log((1.5 * math.pi) ** 2 * s4 / d2) / math.log(9.0))
    k = np.maximum(k, 1.0).astype(np.intp)
    order = np.argsort(-k, kind="stable")
    iu, ju, d2, s4 = iu[order], ju[order], d2[order], s4[order]
    # n_ge[c] = number of pairs with k >= c, a prefix of the sorted pairs
    n_ge = np.append(np.cumsum(np.bincount(k)[::-1])[::-1], 0)
    kmax = n_ge.size - 2
    del order, k
    edges = [math.pi] + [1.5 * math.pi / 3.0 ** c for c in range(1, kmax + 1)]
    panels = []
    for c in range(1, kmax + 1):
        panels.append((edges[c], edges[c - 1], 0, n_ge[c]))  # graded panel
        panels.append((0.0, edges[c], n_ge[c + 1], n_ge[c]))  # first panel of depth c
    xg, wg = leggauss(12)
    e = (alpha - N) / 2.0
    tri = np.zeros_like(d2)
    for a_, b_, lo, hi in panels:
        mid = 0.5 * (a_ + b_)
        hl = 0.5 * (b_ - a_)
        for x_, w_ in zip(xg, wg):
            t = mid + hl * x_
            base = s4[lo:hi] * math.sin(0.5 * t) ** 2
            base += d2[lo:hi]
            base **= e
            base *= w_ * hl * math.sin(t) ** (N - 2)
            tri[lo:hi] += base
    tri *= sphere_area(N - 1)
    out = np.empty((M, M))
    out[iu, ju] = tri
    out[ju, iu] = tri
    np.fill_diagonal(
        out,
        sphere_area(N - 1)
        * 2.0 ** (N - 2)
        * sp_beta((alpha - 1.0) / 2.0, (N - 1.0) / 2.0)
        * (2.0 * r) ** (alpha - N),
    )
    return out


# The largest M at which an N = 3 grid builds an M x M operator matrix: the
# Riesz kernel, the dense Laplacian and the Newton Jacobian.  Above it the
# kernel product is one real FFT, and ``solvers._newton`` (at every N)
# solves by matrix-free GMRES instead of factorizing.  Newton-phase ms
# (median of 7, one thread), dense kernel + LU -> FFT kernel + GMRES
# preconditioned by (-Delta)^(-s), 12-14 iterations per step throughout:
#   N=3 eigen1:            4.6 -> 1.4 (M=384), 8.5 -> 1.6 (512), 20 -> 3.7 (768), 28 -> 2.1 (896), 37 -> 2.4 (1024)
#   N=3 mountain pass 4.1: 8.3 -> 3.8 (384), 18 -> 4.4 (512), 48 -> 10 (768), 68 -> 6.4 (896), 105 -> 7.1 (1024)
#   N=4 eigen1 (dense kernel, LU -> GMRES): 12 -> 4.3 (512), 34 -> 9.7 (768), 73 -> 16 (1024)
# GMRES wins at every M from 384 up; at N = 3 the two cross near M = 256
# (2.4 -> 2.3 for eigen1).  The cutoff stays at 768 because the LU is
# where a Morse index can be read (ROADMAP items 3 and 6).  The 768 rows
# are transform-bound: M + 1 = 769 is prime (see the DST-I note in the
# README)
_DENSE_MAX_M = 768


def _three_dim_lags(grid: RadialGrid) -> np.ndarray:
    """c(0..2M), the N = 3 kernel P = diag(1/r) [c(|i-j|) - c(i+j)] diag(r)
    plus the kink diagonal: c(n) = -g(n), g(n) = 2 pi C_alpha h (n h)^(alpha-1) / (alpha-1)."""
    alpha, h, M = grid.params.alpha, grid.h, grid.M
    g = 2.0 * math.pi * riesz_constant(3, alpha) * h / (alpha - 1.0) * (h * np.arange(2 * M + 1)) ** (alpha - 1.0)
    return -g


class _RieszKernel:
    """Assembled kernel matrix P with (I_alpha * v)(r_i) = (P v)_i, and S,
    its w-symmetric part (the same array as P for N >= 3); at N = 3 only up
    to M = ``_DENSE_MAX_M`` (``_RieszFFT`` above)."""

    def __init__(self, grid: RadialGrid):
        N, alpha = grid.params.N, grid.params.alpha
        r, h, M = grid.r, grid.h, grid.M
        c_a = riesz_constant(N, alpha)
        if N == 3:
            P = _toeplitz_minus_hankel(_three_dim_lags(grid), r)
        else:
            P = c_a * h * r[None, :] ** (N - 1) * _angular_kernel_generic(N, alpha, r)
        P[np.arange(M), np.arange(M)] += _kink_correction_constant(N, alpha) * h ** alpha
        if N == 2:
            # endpoint Euler-Maclaurin term: the integrand rho v(rho) G(r, rho)
            # has nonzero slope at rho = 0 only in two dimensions.
            col = c_a * (h ** 2 / 12.0) * 2.0 * math.pi * r ** (alpha - 2.0)
            stencil = np.zeros(M)
            stencil[:3] = (3.0, -3.0, 1.0)  # quadratic extrapolation of v to 0
            P += np.outer(col, stencil)
        self.P = P
        if N == 2:
            # the endpoint stencil breaks the w-symmetry of P; for N >= 3,
            # W P is symmetric by construction (to rounding)
            S = P.T * grid.w[None, :]
            S *= (1.0 / grid.w)[:, None]
            S += P
            S *= 0.5
        else:
            S = P
        self.S = S

    def potential(self, v: np.ndarray) -> np.ndarray:
        return self.P @ v

    def sym_potential(self, v: np.ndarray) -> np.ndarray:
        """Self-adjoint (in the quadrature inner product) version of P v.

        This is the exact variational derivative of the Coulomb double
        integral and is what enters energies and gradients.
        """
        return self.S @ v

    def sym_matrix(self) -> np.ndarray:
        """The stored w-symmetric matrix (not a copy)."""
        return self.S


def _fft_length(n: int) -> int:
    """The smallest 5-smooth integer >= n: a fast real-FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class _RieszFFT:
    """The N = 3 kernel above ``_DENSE_MAX_M``: ``_RieszKernel``'s P v with
    no matrix, memory linear in M.  With y = r v, the odd extension
    X_j = sign(j) y_|j| (j = -M..M) turns [c(|i-j|) - c(i+j)] y into the plain
    convolution sum_j c(|i-j|) X_j.  Its lags i - j span -(M-1)..2M, 3M
    values that a circular convolution of n >= 3M points keeps apart, so
    P v is one real FFT pair (``numpy.fft``, n the smallest 5-smooth length
    >= 3M + 1) against the stored spectrum of those lags.  The extension,
    its spectrum and the circular product live in buffers the operator owns,
    so one operator serves one thread at a time."""

    def __init__(self, grid: RadialGrid):
        M, alpha = grid.M, grid.params.alpha
        c = _three_dim_lags(grid)
        self._r = grid.r
        self._kink = _kink_correction_constant(3, alpha) * grid.h ** alpha
        n = self._n = _fft_length(3 * M + 1)
        lags = np.zeros(n)
        lags[:2 * M + 1] = c
        lags[n - M + 1:] = c[M - 1:0:-1]  # lags -(M-1)..-1
        self._c_hat = np.fft.rfft(lags)
        self._X = np.zeros(n)
        self._spec = np.empty(n // 2 + 1, dtype=complex)
        self._conv = np.empty(n)

    def potential(self, v: np.ndarray) -> np.ndarray:
        M = v.size
        X = self._X
        np.multiply(self._r, v, out=X[M + 1:2 * M + 1])
        np.negative(X[2 * M:M:-1], out=X[:M])
        np.fft.rfft(X, out=self._spec)
        self._spec *= self._c_hat
        np.fft.irfft(self._spec, self._n, out=self._conv)
        out = self._conv[M + 1:2 * M + 1] / self._r
        out += self._kink * v
        return out

    sym_potential = potential  # P is w-symmetric at N = 3


def _riesz_kernel(grid: RadialGrid) -> _RieszKernel | _RieszFFT:
    op = grid._caches.get("riesz")
    if op is None:
        fft = grid.params.N == 3 and grid.M > _DENSE_MAX_M
        op = grid._caches["riesz"] = (_RieszFFT if fft else _RieszKernel)(grid)
    return op


def gaussian_riesz_profile(N: int, alpha: float, r: np.ndarray, gamma_width: float = 1.0):
    """Closed form of (I_alpha * exp(-gamma |x|^2))(r).

    For the unit Gaussian the potential is
    Gamma((N-alpha)/2) / (2^alpha Gamma(N/2)) 1F1((N-alpha)/2; N/2; -r^2);
    general widths follow by dilation covariance of the kernel.
    """
    from scipy.special import gamma as sp_gamma, hyp1f1

    a = (N - alpha) / 2.0
    b = N / 2.0
    pref = sp_gamma(a) / (2.0 ** alpha * sp_gamma(b))
    z = gamma_width * np.asarray(r, dtype=float) ** 2
    return gamma_width ** (-alpha / 2.0) * pref * hyp1f1(a, b, -z)


def _riesz_spectral(v: Field) -> Field:
    """Spectral cross-check path: k^(-alpha) multiplier on a padded grid.

    The total mass is carried by a matched reference Gaussian whose potential
    is known in closed form; only the zero-mass remainder goes through the
    multiplier, which keeps the domain-truncation error of the inverse
    fractional Laplacian negligible.
    """
    grid = v.grid
    N, alpha = grid.params.N, grid.params.alpha
    pad = 4 if N == 3 else 2
    pg = grid._caches.get(("padgrid", pad))
    if pg is None:
        pg = grid._caches[("padgrid", pad)] = RadialGrid(grid.params, grid.R * pad, pad * (grid.M + 1) - 1)
    vp = np.zeros(pg.M)
    vp[: grid.M] = v.values
    g = np.exp(-pg.r ** 2)
    mass_g = math.pi ** (N / 2.0)  # integral of exp(-|x|^2)
    c = float(np.sum(pg.w * vp)) / mass_g
    eng = pg.transform()
    b = eng.forward(vp - c * g)
    pot = eng.inverse(b * pg.k ** (-alpha))
    pot += c * gaussian_riesz_profile(N, alpha, pg.r)
    return Field(grid, pot[: grid.M])


def riesz_potential(v: Field, method: str = "kernel") -> Field:
    """Convolve with the Riesz kernel of the grid's alpha: I_alpha * v.

    ``method`` selects the authoritative real-space kernel quadrature
    ("kernel") or the spectral cross-check route ("spectral").  A field whose
    tail has not decayed at the cutoff yields an untrustworthy far-field; a
    warning is emitted rather than an error.
    """
    if not v.boundary_decay:
        warnings.warn(
            "riesz_potential: field does not satisfy the boundary-decay "
            "criterion; the potential is contaminated by domain truncation",
            RuntimeWarning,
            stacklevel=2,
        )
    if method == "kernel":
        return Field(v.grid, _riesz_kernel(v.grid).potential(v.values))
    if method == "spectral":
        return _riesz_spectral(v)
    raise ValueError(f"unknown riesz method {method!r}")


# ---------------------------------------------------------------------------
# Coulomb energy and the quadrilinear form
# ---------------------------------------------------------------------------

def coulomb_energy(u: Field) -> float:
    """Double integral of u^2(x) u^2(y) / |x-y|^(N-alpha) (no C_alpha factor)."""
    grid = u.grid
    op = _riesz_kernel(grid)
    sq = u.values ** 2
    return float(np.sum(grid.w * sq * op.sym_potential(sq))) / riesz_constant(
        grid.params.N, grid.params.alpha
    )


def hartree_potential_sym(u: Field) -> np.ndarray:
    """Self-adjoint evaluation of I_alpha * u^2 (node values)."""
    op = _riesz_kernel(u.grid)
    return op.sym_potential(u.values ** 2)


def quadrilinear_T(u: Field, v: Field, w: Field, z: Field) -> float:
    """C_alpha times the double integral of (u v)(x) (w z)(y) / |x-y|^(N-alpha)."""
    _check_same_grid(u, v)
    _check_same_grid(u, w)
    _check_same_grid(u, z)
    grid = u.grid
    op = _riesz_kernel(grid)
    return float(np.sum(grid.w * (u.values * v.values) * op.sym_potential(w.values * z.values)))


# ---------------------------------------------------------------------------
# the two scaled operators
# ---------------------------------------------------------------------------

def apply_A(u: Field) -> DualField:
    """Strong form of the quadratic-plus-Coulomb operator:
    (-Delta)^s u + (I_alpha * u^2) u."""
    eng = u.grid.transform()
    return DualField(u.grid, eng.lap(eng.forward(u.values)) + hartree_potential_sym(u) * u.values)


def apply_B(u: Field) -> DualField:
    """Strong form of the scaling-critical power: |u|^(q*-2) u."""
    p = u.grid.exps.two_star_s_alpha
    return DualField(u.grid, np.abs(u.values) ** (p - 2.0) * u.values)


# ---------------------------------------------------------------------------
# dense matrix for the Newton solvers (they add the Hartree part in place)
# ---------------------------------------------------------------------------

def dense_fractional_matrix(grid: RadialGrid) -> np.ndarray:
    """(-Delta)^s as a dense node-coordinate matrix: the engine's ``dense_lap``, once per grid."""
    L = grid._caches.get("dense_lap")
    if L is None:
        L = grid._caches["dense_lap"] = grid.transform().dense_lap()
    return L
