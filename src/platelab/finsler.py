"""Coefficient tensors a_ijkl, the dual Finsler metric and distance-to-boundary.

The fourth-order symbol is stored in a 3x3 "Voigt" matrix M per point, acting
on s(u) = (u_xx, u_yy, u_xy): sum_ijkl a_ijkl u_ij u_kl = s^T M s, with index
multiplicities folded in (M[2,2] = 4 a_0101 etc.).  The dual metric is
p*(x, xi) = (s(xi)^T M s(xi))^(1/4) with s(xi) = (xi_x^2, xi_y^2, xi_x xi_y).

Distance to the boundary solves the eikonal identity p*(x, grad d) = 1 by
Gauss-Seidel fast sweeping with upwind one-sided differences; the one-node
quartic update has no closed form and is solved by bisection.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import NegativeQuartic, NoConvergence
from .geometry import AnalyticDomain, Grid, GridMask, lattice_derivative_norms

try:
    from numba import njit
except ImportError:  # pragma: no cover - numba is a declared dependency
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f

_VOIGT_MULT = np.array([1.0, 1.0, 2.0])
_IDX = {(0, 0): 0, (1, 1): 1, (0, 1): 2, (1, 0): 2}


@dataclass(frozen=True)
class CoefficientField:
    """Tensor a_ijkl(x) with the (ij), (kl) and (ij)<->(kl) symmetries.

    ``voigt`` maps coordinate arrays of shape S to an array of shape S+(3,3).
    ``delta_norm`` is the sup operator norm of the perturbation for
    kind='perturbed' fields, measured in the orthonormal Hessian basis.
    """

    kind: str
    voigt: Callable[[np.ndarray, np.ndarray], np.ndarray]
    base: Optional["CoefficientField"] = None
    delta_norm: float = 0.0

    def tensor_entry(self, x, y, i, j, k, l):
        """Reconstruct a_ijkl from the Voigt storage (tests/invariants)."""
        M = self.voigt(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        m, n = _IDX[(i, j)], _IDX[(k, l)]
        return M[..., m, n] / (_VOIGT_MULT[m] * _VOIGT_MULT[n])


def _const_voigt(M):
    M = np.asarray(M, dtype=float)

    def voigt(x, y):
        shp = np.broadcast(np.asarray(x), np.asarray(y)).shape
        return np.broadcast_to(M, shp + (3, 3)).copy()

    return voigt


_BILAPLACIAN_M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


def bilaplacian() -> CoefficientField:
    """a_ijkl = delta_ij delta_kl, the form of the bilaplacian."""
    return CoefficientField("bilaplacian", _const_voigt(_BILAPLACIAN_M))


def product(b) -> CoefficientField:
    """a_ijkl = b_ij b_kl for a symmetric 2x2 matrix (or field) b."""
    if callable(b):
        def voigt(x, y):
            B = np.asarray(b(x, y), dtype=float)
            s = np.stack([B[..., 0, 0], B[..., 1, 1], 2.0 * B[..., 0, 1]], axis=-1)
            return s[..., :, None] * s[..., None, :]
        return CoefficientField("product", voigt)
    B = np.asarray(b, dtype=float)
    if not np.allclose(B, B.T):
        raise ValueError("product matrix b must be symmetric")
    s = np.array([B[0, 0], B[1, 1], 2.0 * B[0, 1]])
    return CoefficientField("product", _const_voigt(np.outer(s, s)))


def diagonal(a_ik) -> CoefficientField:
    """a_ijkl = delta_ij delta_kl a_ik for a symmetric nonnegative 2x2 a."""
    A = np.asarray(a_ik, dtype=float)
    if not np.allclose(A, A.T) or np.any(A < 0):
        raise ValueError("diagonal coefficient matrix must be symmetric nonnegative")
    M = np.array([[A[0, 0], A[0, 1], 0.0],
                  [A[0, 1], A[1, 1], 0.0],
                  [0.0, 0.0, 0.0]])
    return CoefficientField("diagonal", _const_voigt(M))


def freeze_coefficients(coeffs: CoefficientField, grid: Grid) -> np.ndarray:
    """Evaluate the Voigt tensor at every lattice node: shape (ny, nx, 3, 3)."""
    X, Y = grid.meshgrid()
    M = np.ascontiguousarray(coeffs.voigt(X, Y), dtype=float)
    if M.shape != (grid.ny, grid.nx, 3, 3):
        raise ValueError("voigt field returned wrong shape")
    return M


def dual_metric(coeffs: CoefficientField, x, xi) -> float:
    """p*(x, xi) = (sum a_ijkl xi_i xi_j xi_k xi_l)^(1/4)."""
    M = coeffs.voigt(np.asarray(x[0], dtype=float), np.asarray(x[1], dtype=float))
    s = np.array([xi[0] ** 2, xi[1] ** 2, xi[0] * xi[1]])
    q = float(s @ M @ s)
    if q < -1e-12 * max(1.0, np.dot(xi, xi) ** 2):
        raise NegativeQuartic(f"quartic form = {q} < 0 at x={tuple(x)}")
    return max(q, 0.0) ** 0.25


@dataclass(frozen=True)
class DistanceField:
    """Grid samples of distance-to-boundary plus the regularization d_n."""

    metric: str                 # 'euclidean' or 'finsler'
    grid: Grid
    d: np.ndarray               # (ny, nx), 0 outside the interior mask
    n_reg: int
    d_n: np.ndarray             # d + 1/n_reg
    c1_hat: Optional[float] = None
    c2_hat: Optional[float] = None

    def interior_values(self, mask: GridMask) -> np.ndarray:
        iy, ix = mask.node_of_dof[:, 0], mask.node_of_dof[:, 1]
        return self.d[iy, ix]


def regularize(dist: DistanceField, n: int) -> DistanceField:
    """d_n = d + 1/n exactly."""
    n = int(n)
    if n < 1:
        raise ValueError("regularization index must be >= 1")
    return replace(dist, n_reg=n, d_n=dist.d + 1.0 / n)


@njit(cache=True)
def _quartic(M, gx, gy):
    s0 = gx * gx
    s1 = gy * gy
    s2 = gx * gy
    return (M[0, 0] * s0 * s0 + M[1, 1] * s1 * s1 + M[2, 2] * s2 * s2
            + 2.0 * (M[0, 1] * s0 * s1 + M[0, 2] * s0 * s2 + M[1, 2] * s1 * s2))


@njit(cache=True)
def _g_value(M, nvx, sgx, nvy, sgy, h, t):
    gx = t - nvx
    if gx < 0.0:
        gx = 0.0
    gx = sgx * gx / h
    gy = t - nvy
    if gy < 0.0:
        gy = 0.0
    gy = sgy * gy / h
    q = _quartic(M, gx, gy)
    if q <= 0.0:
        return 0.0
    return q ** 0.25


@njit(cache=True)
def _local_update(M, dW, dE, dS, dN, h, step):
    best = 1e100
    for cx in range(2):
        nvx = dW if cx == 0 else dE
        sgx = 1.0 if cx == 0 else -1.0
        if nvx >= 1e99:
            continue
        for cy in range(2):
            nvy = dS if cy == 0 else dN
            sgy = 1.0 if cy == 0 else -1.0
            if nvy >= 1e99:
                continue
            lo = min(nvx, nvy)
            hi = lo + step
            it = 0
            while _g_value(M, nvx, sgx, nvy, sgy, h, hi) < 1.0 and it < 60:
                hi = lo + 2.0 * (hi - lo)
                it += 1
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if _g_value(M, nvx, sgx, nvy, sgy, h, mid) < 1.0:
                    lo = mid
                else:
                    hi = mid
            t = 0.5 * (lo + hi)
            if t < best:
                best = t
    return best


@njit(cache=True)
def _sweep_once(d, interior, frozen, M, h, step, iy0, iy1, iys, ix0, ix1, ixs):
    ny, nx = d.shape
    max_change = 0.0
    for iy in range(iy0, iy1, iys):
        for ix in range(ix0, ix1, ixs):
            if not interior[iy, ix] or frozen[iy, ix]:
                continue
            dW = d[iy, ix - 1] if ix > 0 else 1e100
            dE = d[iy, ix + 1] if ix < nx - 1 else 1e100
            dS = d[iy - 1, ix] if iy > 0 else 1e100
            dN = d[iy + 1, ix] if iy < ny - 1 else 1e100
            t = _local_update(M[iy, ix], dW, dE, dS, dN, h, step)
            if t < d[iy, ix]:
                change = d[iy, ix] - t
                if change > max_change:
                    max_change = change
                d[iy, ix] = t
    return max_change


def _axis_pstar_min(Mfield, mask):
    """Min over interior nodes and 16 directions of p*(unit vector)."""
    thetas = np.linspace(0.0, np.pi, 16, endpoint=False)
    pmin = np.inf
    iy, ix = np.nonzero(mask.interior)
    M = Mfield[iy, ix]  # (count, 3, 3)
    for th in thetas:
        ux, uy = np.cos(th), np.sin(th)
        s = np.array([ux * ux, uy * uy, ux * uy])
        q = np.einsum("nij,i,j->n", M, s, s)
        q = np.maximum(q, 0.0)
        pmin = min(pmin, float(np.min(q) ** 0.25))
    if not np.isfinite(pmin) or pmin <= 0:
        raise NegativeQuartic("dual metric degenerates on the mask")
    return pmin


def _seed_boundary_layer(domain, grid, mask, Mfield):
    """Interior nodes with an exterior 4-neighbor get the flat-boundary value
    d0 = -sdf / p*(x, n) with n the outward sdf gradient direction."""
    X, Y = grid.meshgrid()
    sd = domain.sdf(X, Y)
    interior = mask.interior
    ny, nx = interior.shape
    nb_ext = np.zeros_like(interior)
    nb_ext[:, 1:] |= ~interior[:, :-1]
    nb_ext[:, :-1] |= ~interior[:, 1:]
    nb_ext[1:, :] |= ~interior[:-1, :]
    nb_ext[:-1, :] |= ~interior[1:, :]
    seed = interior & nb_ext
    iy, ix = np.nonzero(seed)
    dq = 1e-4 * grid.h
    gx = (domain.sdf(X[iy, ix] + dq, Y[iy, ix]) - domain.sdf(X[iy, ix] - dq, Y[iy, ix])) / (2 * dq)
    gy = (domain.sdf(X[iy, ix], Y[iy, ix] + dq) - domain.sdf(X[iy, ix], Y[iy, ix] - dq)) / (2 * dq)
    nrm = np.maximum(np.hypot(gx, gy), 1e-12)
    gx, gy = gx / nrm, gy / nrm
    s = np.stack([gx * gx, gy * gy, gx * gy], axis=-1)
    M = Mfield[iy, ix]
    q = np.maximum(np.einsum("nij,ni,nj->n", M, s, s), 1e-300)
    pstar = q ** 0.25
    vals = np.maximum(-sd[iy, ix], 1e-3 * grid.h) / pstar
    return seed, iy, ix, vals


_SWEEP_ORDERS = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]


def finsler_distance(domain: AnalyticDomain, grid: Grid, mask: GridMask,
                     coeffs: CoefficientField, tol: float = 1e-9,
                     max_sweeps: int = 200, metric: str = "finsler") -> DistanceField:
    """Distance-to-boundary solving p*(x, grad d) = 1 by fast sweeping.

    For metric='euclidean' the same solver runs with p* = |xi|.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if metric == "euclidean":
        Mfield = np.broadcast_to(_BILAPLACIAN_M,
                                 (grid.ny, grid.nx, 3, 3)).copy()
    else:
        Mfield = freeze_coefficients(coeffs, grid)
    pmin = _axis_pstar_min(Mfield, mask)
    step = 1.5 * grid.h / pmin

    d = np.where(mask.interior, 1e100, 0.0)
    frozen = np.zeros_like(mask.interior)
    seed, iy, ix, vals = _seed_boundary_layer(domain, grid, mask, Mfield)
    d[iy, ix] = vals
    frozen[iy, ix] = True

    h = grid.h
    sweeps = 0
    converged = False
    while sweeps < max_sweeps and not converged:
        cycle_change = 0.0
        for sy, sx in _SWEEP_ORDERS:
            iy0, iy1, iys = (0, grid.ny, 1) if sy > 0 else (grid.ny - 1, -1, -1)
            ix0, ix1, ixs = (0, grid.nx, 1) if sx > 0 else (grid.nx - 1, -1, -1)
            ch = _sweep_once(d, mask.interior, frozen, Mfield, h, step,
                             iy0, iy1, iys, ix0, ix1, ixs)
            cycle_change = max(cycle_change, ch)
            sweeps += 1
            if sweeps >= max_sweeps:
                break
        converged = cycle_change < tol
    if not converged:
        raise NoConvergence(
            f"fast sweeping: max update {cycle_change:.3e} > tol {tol:.3e} "
            f"after {sweeps} sweeps")
    d = np.where(mask.interior, d, 0.0)
    n_reg = max(1, int(round(1.0 / h)))
    return DistanceField(metric=metric, grid=grid, d=d, n_reg=n_reg,
                         d_n=d + 1.0 / n_reg)


def euclidean_from_sdf(domain: AnalyticDomain, grid: Grid, mask: GridMask,
                       n_reg: Optional[int] = None) -> DistanceField:
    """Exact Euclidean distance sampled from the analytic sdf (geometry uses)."""
    X, Y = grid.meshgrid()
    d = np.where(mask.interior, -domain.sdf(X, Y), 0.0)
    n = n_reg if n_reg is not None else max(1, int(round(1.0 / grid.h)))
    return DistanceField(metric="euclidean", grid=grid, d=d, n_reg=n,
                         d_n=d + 1.0 / n)


def equivalence_constants(dist: DistanceField, dist_euclid: DistanceField,
                          mask: GridMask):
    """(c1_hat, c2_hat): min and max of d / d_Euclid over interior nodes."""
    dv = dist.interior_values(mask)
    de = dist_euclid.interior_values(mask)
    ratio = dv / np.maximum(de, 1e-300)
    return float(ratio.min()), float(ratio.max())


def with_equivalence(dist: DistanceField, dist_euclid: DistanceField,
                     mask: GridMask) -> DistanceField:
    c1, c2 = equivalence_constants(dist, dist_euclid, mask)
    return replace(dist, c1_hat=c1, c2_hat=c2)


def eikonal_residual(dist: DistanceField, coeffs: CoefficientField,
                     mask: GridMask, metric: Optional[str] = None) -> np.ndarray:
    """|p*(x, grad_h d) - 1| at interior nodes, upwind one-sided gradient.

    Returns an (count,) array aligned with the dof ordering.
    """
    grid = dist.grid
    if (metric or dist.metric) == "euclidean":
        Mfield = np.broadcast_to(_BILAPLACIAN_M, (grid.ny, grid.nx, 3, 3))
    else:
        Mfield = freeze_coefficients(coeffs, grid)
    d = dist.d
    h = grid.h
    iy, ix = mask.node_of_dof[:, 0], mask.node_of_dof[:, 1]
    dW = d[iy, ix - 1]
    dE = d[iy, ix + 1]
    dS = d[iy - 1, ix]
    dN = d[iy + 1, ix]
    dc = d[iy, ix]
    gx = np.where(dW <= dE, (dc - dW) / h, (dE - dc) / h)
    gy = np.where(dS <= dN, (dc - dS) / h, (dN - dc) / h)
    # no-inflow components vanish
    gx = np.where(np.minimum(dW, dE) <= dc, gx, 0.0)
    gy = np.where(np.minimum(dS, dN) <= dc, gy, 0.0)
    s = np.stack([gx * gx, gy * gy, gx * gy], axis=-1)
    M = Mfield[iy, ix]
    q = np.maximum(np.einsum("nij,ni,nj->n", M, s, s), 0.0)
    return np.abs(q ** 0.25 - 1.0)


def measure_collar_regularity(dist: DistanceField, mask: GridMask,
                              theta: Optional[float] = None):
    """Fit |hess d| <= c d^(-1+tau) over the collar theta/4 < d < theta.

    Returns (c_fit, tau_fit) from least squares on the log-log samples.
    """
    d = dist.d
    if theta is None:
        theta = float(d.max()) / 2.0
    _, hess = lattice_derivative_norms(dist.grid, d)
    dc = d[1:-1, 1:-1]
    inner = mask.interior.copy()
    # keep a safety ring: all 8 neighbors interior
    ok = inner[1:-1, 1:-1] & inner[1:-1, 2:] & inner[1:-1, :-2] \
        & inner[2:, 1:-1] & inner[:-2, 1:-1] & inner[2:, 2:] \
        & inner[:-2, :-2] & inner[2:, :-2] & inner[:-2, 2:]
    band = ok & (dc > theta / 4.0) & (dc < theta) & (hess > 1e-12)
    if band.sum() < 8:
        return float("nan"), float("nan")
    x = np.log(dc[band])
    y = np.log(hess[band])
    slope, intercept = np.polyfit(x, y, 1)
    tau_fit = slope + 1.0
    c_fit = float(np.exp(intercept))
    return c_fit, float(tau_fit)
