"""The dilation map u_t = t^theta u(t .) and the fiber projection.

On the fixed grid the dilated field is resampled by monotone cubic
interpolation (no overshoot, preserves positivity of bump profiles) with
zero extension beyond the cutoff, one interpolant per base field.
Contraction (t > 1) reads samples beyond R and therefore requires the
boundary-decay flag.  The projection onto {I = 1} is a memoised root solve
for t along the fiber.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import I_functional
from .grid import Field
from .operators import _brentq

__all__ = ["scale", "project_to_M"]

_PROJECT_TOL = 1e-11  # |I(u_t) - 1| read as an exact root


class _Fiber:
    """The dilations u_t of one base field u, all read from one interpolant.

    Interpolation is in y = r^2, where smooth radial profiles are smooth and
    extremum-free near the origin (the monotone limiter would otherwise
    flatten the peak); the y = 0 anchor is quadratic in y, O(h^6) accurate.
    """

    def __init__(self, u: Field, assume_zero_tail: bool = False):
        from scipy.interpolate import PchipInterpolator  # loaded by the first dilation only

        self.u, self.grid = u, u.grid
        self.may_contract = assume_zero_tail or u.boundary_decay
        self.theta = u.grid.exps.theta
        y, v = u.grid.r ** 2, u.values
        y0, y1, y2 = y[0], y[1], y[2]
        origin = ((y1 * y2) / ((y0 - y1) * (y0 - y2)) * v[0]
                  + (y0 * y2) / ((y1 - y0) * (y1 - y2)) * v[1]
                  + (y0 * y1) / ((y2 - y0) * (y2 - y1)) * v[2])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self.interp = PchipInterpolator(np.r_[0.0, y], np.r_[origin, v], extrapolate=False)

    def at(self, t: float) -> Field:
        if not 0.0 <= t < math.inf:
            raise ValueError("dilation parameter must be finite and nonnegative")
        if t == 0.0:
            return self.grid.zero_field()
        if t == 1.0:
            return self.u.copy()
        if t > 1.0 and not self.may_contract:
            raise ValueError("scaling would read beyond cutoff: t > 1 requires the boundary-decay flag")
        try:
            amp = t ** self.theta
        except OverflowError:
            raise ValueError("dilation t^theta overflows") from None
        r, R = self.grid.r, self.grid.R
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            target = (t * r) ** 2
            vals = np.where(target <= R ** 2, self.interp(np.minimum(target, R ** 2)), 0.0)
        return Field(self.grid, amp * np.nan_to_num(vals, nan=0.0))


def scale(u: Field, t: float, assume_zero_tail: bool = False) -> Field:
    """Dilate: (u, t) -> t^theta u(t r), resampled on the grid of u.

    scale(u, 0) = 0 and scale(u, 1) = u exactly; t < 0 and a non-finite t
    are rejected; t > 1 needs the boundary-decay flag, unless
    ``assume_zero_tail`` accepts zero extension of an undecayed tail
    (tail-insensitive quotient checks).
    """
    return _Fiber(u, assume_zero_tail).at(t)


def _gap(t: float, fiber: _Fiber, sign: float, seen: dict) -> float:
    # sign(sigma) g(t), which increases in t, memoised with u_t in seen[t];
    # |g| < _PROJECT_TOL reads as an exact root, which stops Brent's method
    # there.  The bracket search and the root solve share the state.
    if t not in seen:
        ut = fiber.at(t)
        seen[t] = (sign * (I_functional(ut) - 1.0), ut)
    return 0.0 if abs(seen[t][0]) < _PROJECT_TOL else seen[t][0]


def project_to_M(u: Field) -> Field:
    """Fiber projection onto the unit-energy manifold {I = 1}.

    Solves g(t) = I(u_t) - 1 = 0 on one interpolant of u with g memoised:
    Brent's method (``operators._brentq``) on a bracket grown by factors of
    1.3 around the analytic start t = I(u)^(-1/sigma), taken in log space,
    up to the first |g| < ``_PROJECT_TOL`` or its 100th iteration.  Returns
    the u_t of least |g| seen if that is <= 1e-8; otherwise, or if the
    start t does not fit a float, raises RuntimeError.
    """
    iu = I_functional(u)
    if iu <= 0.0:
        raise ValueError("cannot project the zero field onto the manifold")
    sigma = u.grid.exps.sigma
    fiber = _Fiber(u)
    log_t = -math.log(iu) / sigma
    if abs(log_t) * max(1.0, fiber.theta) > 700.0:
        raise RuntimeError(f"fiber parameter t = exp({log_t:.4g}) is not representable")
    seen = {}
    state = (fiber, math.copysign(1.0, sigma), seen)
    lo = hi = math.exp(log_t)
    for _ in range(60):  # only the end on the wrong side of the root moves
        if _gap(lo, *state) > 0.0:
            lo /= 1.3
        elif _gap(hi, *state) < 0.0:
            hi *= 1.3
        else:
            break
    if _gap(lo, *state) < 0.0 < _gap(hi, *state):
        try:
            _brentq(lambda t: _gap(t, *state), lo, hi, 1e-15 * lo, 1e-15)
        except RuntimeError:  # unconverged: seen still holds the best point
            pass
    g, ut = min(seen.values(), key=lambda gu: abs(gu[0]))
    if abs(g) <= 1e-8:
        return ut
    raise RuntimeError("fiber projection did not converge to the manifold")
