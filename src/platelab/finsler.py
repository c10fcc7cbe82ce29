"""Coefficient tensors a_ijkl, the dual Finsler metric and distance-to-boundary.

Every operator is constant, so its fourth-order symbol is one 3x3 "Voigt"
matrix M acting on s(u) = (u_xx, u_yy, u_xy): sum_ijkl a_ijkl u_ij u_kl =
s^T M s, with index multiplicities folded in (M[2,2] = 4 a_0101 etc.).  The
dual metric is p*(xi) = (s(xi)^T M s(xi))^(1/4) with
s(xi) = (xi_x^2, xi_y^2, xi_x xi_y).

Distance to the boundary solves the eikonal identity p*(grad d) = 1 with
upwind one-sided differences by the fast iterative method (Jeong &
Whitaker, SIAM J. Sci. Comput. 30(5), 2008): Jacobi passes over an active
set, each re-solving with numpy every node whose neighbours changed, until
no node decreases.  That is the fixed point of the upwind scheme that fast
sweeping (Zhao, Math. Comp. 74, 2005) also reaches.  The one-node quartic
update has no closed form; it is solved by a safeguarded Newton iteration
on p* - 1 inside a bisection bracket.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeQuartic, NoConvergence
from .geometry import AnalyticDomain, Grid, GridMask

_VOIGT_MULT = np.array([1.0, 1.0, 2.0])
_IDX = {(0, 0): 0, (1, 1): 1, (0, 1): 2, (1, 0): 2}


@dataclass(frozen=True)
class CoefficientField:
    """Constant tensor a_ijkl with the (ij), (kl) and (ij)<->(kl) symmetries.

    ``M`` is its (3, 3) Voigt matrix.  ``delta_norm`` is the operator norm of
    the perturbation for kind='perturbed' fields, measured in the orthonormal
    Hessian basis.
    """

    kind: str
    M: np.ndarray
    delta_norm: float = 0.0

    def tensor_entry(self, i, j, k, l):
        """Reconstruct a_ijkl from the Voigt storage (tests/invariants)."""
        m, n = _IDX[(i, j)], _IDX[(k, l)]
        return self.M[m, n] / (_VOIGT_MULT[m] * _VOIGT_MULT[n])


_BILAPLACIAN_M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


def bilaplacian() -> CoefficientField:
    """a_ijkl = delta_ij delta_kl, the form of the bilaplacian."""
    return CoefficientField("bilaplacian", _BILAPLACIAN_M.copy())


def product(b) -> CoefficientField:
    """a_ijkl = b_ij b_kl for a constant symmetric definite 2x2 matrix b.

    The symbol (xi^T b xi)^2 vanishes on a nonzero xi unless det b > 0.
    """
    B = np.asarray(b, dtype=float)
    if not np.allclose(B, B.T):
        raise ValueError("product matrix b must be symmetric")
    if not np.linalg.det(B) > 0:
        raise ValueError("product matrix b must be definite (det b > 0), "
                         "or the operator is not elliptic")
    s = np.array([B[0, 0], B[1, 1], 2.0 * B[0, 1]])
    return CoefficientField("product", np.outer(s, s))


def diagonal(a_ik) -> CoefficientField:
    """a_ijkl = delta_ij delta_kl a_ik for a symmetric nonnegative 2x2 a
    with a00, a11 > 0, the condition for an elliptic symbol."""
    A = np.asarray(a_ik, dtype=float)
    if not np.allclose(A, A.T) or np.any(A < 0):
        raise ValueError("diagonal coefficient matrix must be symmetric nonnegative")
    if not (A[0, 0] > 0 and A[1, 1] > 0):
        raise ValueError("diagonal coefficients need a00 > 0 and a11 > 0, "
                         "or the operator is not elliptic")
    M = np.array([[A[0, 0], A[0, 1], 0.0],
                  [A[0, 1], A[1, 1], 0.0],
                  [0.0, 0.0, 0.0]])
    return CoefficientField("diagonal", M)


def quartic_symbol(M, xi_x, xi_y) -> np.ndarray:
    """sum a_ijkl xi_i xi_j xi_k xi_l = s^T M s, s = (xi_x^2, xi_y^2, xi_x xi_y).

    M is the (3, 3) Voigt matrix; the direction arrays broadcast.
    """
    s = np.stack([xi_x * xi_x, xi_y * xi_y, xi_x * xi_y], axis=-1)
    return np.einsum("...ij,...i,...j->...", M, s, s)


def dual_metric(coeffs: CoefficientField, xi) -> float:
    """p*(xi) = (sum a_ijkl xi_i xi_j xi_k xi_l)^(1/4)."""
    q = float(quartic_symbol(coeffs.M, xi[0], xi[1]))
    if q < -1e-12 * max(1.0, np.dot(xi, xi) ** 2):
        raise NegativeQuartic(f"quartic form = {q} < 0 at xi={tuple(xi)}")
    return max(q, 0.0) ** 0.25


@dataclass(frozen=True)
class DistanceField:
    """Grid samples of distance-to-boundary; n_reg = round(1/h) is the
    default index n of the regularization d_n = d + 1/n."""

    grid: Grid
    d: np.ndarray               # (ny, nx), 0 outside the interior mask
    n_reg: int

    def interior_values(self, mask: GridMask) -> np.ndarray:
        return mask.restrict(self.d)


def _distance_field(grid: Grid, d: np.ndarray) -> DistanceField:
    return DistanceField(grid=grid, d=d, n_reg=max(1, int(round(1.0 / grid.h))))


_FAR = 1e100   # unvisited nodes and the ring around the lattice
# The 4 upwind candidate pairs (x neighbour, y neighbour) are (W,S), (W,N),
# (E,S), (E,N); W and S give differences +(t - nv)/h, E and N -(t - nv)/h.
_SGX = np.array([1.0, 1.0, -1.0, -1.0])
_SGY = np.array([1.0, -1.0, 1.0, -1.0])
# the six distinct Voigt entries (M00, M11, M22, M01, M02, M12)
_VOIGT_ROWS = [0, 1, 2, 0, 0, 1]
_VOIGT_COLS = [0, 1, 2, 1, 2, 2]


def _g_and_slope(C, nvx, sgx, nvy, sgy, h, t):
    """g(t) = p*(grad) for the upwind gradient with value t, and dq/dt.

    C holds the Voigt entries (M00, M11, M22, M01, M02, M12).
    A component whose neighbour value is above t does not flow in.
    """
    ax = t > nvx
    ay = t > nvy
    gx = sgx * np.where(ax, t - nvx, 0.0) / h
    gy = sgy * np.where(ay, t - nvy, 0.0) / h
    s0, s1, s2 = gx * gx, gy * gy, gx * gy
    m00, m11, m22, m01, m02, m12 = C
    q0 = m00 * s0 + m01 * s1 + m02 * s2     # q_i = (M s)_i, so q = s . (M s)
    q1 = m01 * s0 + m11 * s1 + m12 * s2
    q2 = m02 * s0 + m12 * s1 + m22 * s2
    q = s0 * q0 + s1 * q1 + s2 * q2
    dq_dgx = 2.0 * (2.0 * gx * q0 + gy * q2)
    dq_dgy = 2.0 * (2.0 * gy * q1 + gx * q2)
    dq = (np.where(ax, sgx, 0.0) * dq_dgx + np.where(ay, sgy, 0.0) * dq_dgy) / h
    return np.maximum(q, 0.0) ** 0.25, dq


def _local_solve(C, nvx, sgx, nvy, sgy, h, step):
    """Root of g(t) = 1 above lo = min(nvx, nvy), one per candidate.

    The bracket [lo, hi] grows from hi = lo + step until g(hi) >= 1.  Then a
    Newton iteration on f = g - 1 starts at hi; g = q^(1/4) is homogeneous
    of degree one in the gradient, so f is close to linear past the kink
    where the second component switches on (Newton on q - 1 stalls there).
    A step that leaves the bracket is replaced by bisection.  A converged
    entry stops moving, so each root is independent of the rest of the batch.
    """
    lo = np.minimum(nvx, nvy)
    hi = lo + step
    for _ in range(60):
        short = _g_and_slope(C, nvx, sgx, nvy, sgy, h, hi)[0] < 1.0
        if not short.any():
            break
        hi = np.where(short, lo + 2.0 * (hi - lo), hi)
    t = hi
    live = np.ones(t.shape, dtype=bool)
    for _ in range(60):
        g, dq = _g_and_slope(C, nvx, sgx, nvy, sgy, h, t)
        below = g < 1.0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            tn = t - 4.0 * g ** 3 * (g - 1.0) / dq   # dg/dt = dq / (4 g^3)
        tn = np.where((tn >= lo) & (tn <= hi), tn, 0.5 * (lo + hi))
        done = np.abs(tn - t) <= 4.0 * np.spacing(t)
        t = np.where(live, tn, t)
        live &= ~done
        if not live.any():
            break
    return t


def _sweep_once(dp, active, C, h, step):
    """One Jacobi pass: re-solve the nodes ``active`` (flat indices into the
    padded distance ``dp``) from their current neighbours, in place, with the
    Voigt entries C.  Returns the nodes whose value decreased."""
    flat = dp.reshape(-1)
    row = dp.shape[1]
    dW, dE = flat[active - 1], flat[active + 1]
    dS, dN = flat[active - row], flat[active + row]
    nvx = np.stack([dW, dW, dE, dE])
    nvy = np.stack([dS, dN, dS, dN])
    pair, node = np.nonzero((nvx < 1e99) & (nvy < 1e99))
    cand = np.full(nvx.shape, _FAR)
    cand[pair, node] = _local_solve(C, nvx[pair, node], _SGX[pair],
                                    nvy[pair, node], _SGY[pair], h, step)
    new = cand.min(axis=0)
    down = new < flat[active]
    flat[active[down]] = new[down]
    return active[down]


def _axis_pstar_min(M):
    """Min over 16 directions of p*(unit vector)."""
    thetas = np.linspace(0.0, np.pi, 16, endpoint=False)
    q = quartic_symbol(M, np.cos(thetas), np.sin(thetas))
    pmin = float(np.min(np.maximum(q, 0.0)) ** 0.25)
    if not np.isfinite(pmin) or pmin <= 0:
        raise NegativeQuartic("dual metric degenerates")
    return pmin


def _seed_boundary_layer(domain, grid, mask, M):
    """Interior nodes with an exterior 4-neighbor get the flat-boundary value
    d0 = -sdf / p*(n) with n the outward sdf gradient direction.

    On the medial axis the central difference of the sdf cancels; there a
    one-sided (forward) difference picks one of the nearest boundaries.
    """
    interior = mask.interior
    nb_ext = np.zeros_like(interior)
    nb_ext[:, 1:] |= ~interior[:, :-1]
    nb_ext[:, :-1] |= ~interior[:, 1:]
    nb_ext[1:, :] |= ~interior[:-1, :]
    nb_ext[:-1, :] |= ~interior[1:, :]
    iy, ix = np.nonzero(interior & nb_ext)
    x, y = grid.xs()[ix], grid.ys()[iy]
    s0 = domain.sdf(x, y)
    dq = 1e-4 * grid.h
    sxp, syp = domain.sdf(x + dq, y), domain.sdf(x, y + dq)
    gx = (sxp - domain.sdf(x - dq, y)) / (2 * dq)
    gy = (syp - domain.sdf(x, y - dq)) / (2 * dq)
    medial = np.hypot(gx, gy) < 0.5
    gx = np.where(medial, (sxp - s0) / dq, gx)
    gy = np.where(medial, (syp - s0) / dq, gy)
    nrm = np.maximum(np.hypot(gx, gy), 1e-12)
    q = np.maximum(quartic_symbol(M, gx / nrm, gy / nrm), 1e-300)
    pstar = q ** 0.25
    vals = np.maximum(-s0, 1e-3 * grid.h) / pstar
    return iy, ix, vals


def finsler_distance(domain: AnalyticDomain, grid: Grid, mask: GridMask,
                     coeffs: CoefficientField) -> DistanceField:
    """Distance-to-boundary solving p*(grad d) = 1 by the fast iterative
    method: every free node starts active, and after each pass the free
    4-neighbours of the nodes that decreased are the next active set.  It
    stops when a pass decreases no node, an exact fixed point.  The passes
    are capped at 4 (nx + ny), four times a monotone path across the lattice.

    With coeffs = bilaplacian(), p* = |xi| and d is the Euclidean distance.
    """
    pmin = _axis_pstar_min(coeffs.M)
    h = grid.h
    step = 1.5 * h / pmin

    dp = np.full((grid.ny + 2, grid.nx + 2), _FAR)
    d = dp[1:-1, 1:-1]
    d[...] = np.where(mask.interior, _FAR, 0.0)
    iy, ix, vals = _seed_boundary_layer(domain, grid, mask, coeffs.M)
    d[iy, ix] = vals
    free = np.pad(mask.interior, 1)
    free[iy + 1, ix + 1] = False
    free = free.reshape(-1)
    C = tuple(coeffs.M[_VOIGT_ROWS, _VOIGT_COLS])
    row = dp.shape[1]
    active = np.flatnonzero(free)
    max_passes = 4 * (grid.nx + grid.ny)
    for _ in range(max_passes):
        if not active.size:
            break
        down = _sweep_once(dp, active, C, h, step)
        nb = np.concatenate([down - 1, down + 1, down - row, down + row])
        active = np.unique(nb[free[nb]])
    if active.size:
        raise NoConvergence(f"eikonal: {active.size} nodes still active "
                            f"after {max_passes} passes")
    return _distance_field(grid, np.where(mask.interior, d, 0.0))


def euclidean_from_sdf(domain: AnalyticDomain, grid: Grid,
                       mask: GridMask) -> DistanceField:
    """Exact Euclidean distance sampled from the analytic sdf (geometry uses)."""
    X, Y = grid.meshgrid()
    return _distance_field(grid, np.where(mask.interior, -domain.sdf(X, Y), 0.0))


def equivalence_constants(dist: DistanceField, dist_euclid: DistanceField,
                          mask: GridMask):
    """(c1_hat, c2_hat): min and max of d / d_Euclid over interior nodes."""
    dv = dist.interior_values(mask)
    de = dist_euclid.interior_values(mask)
    ratio = dv / np.maximum(de, 1e-300)
    return float(ratio.min()), float(ratio.max())


def eikonal_residual(dist: DistanceField, coeffs: CoefficientField,
                     mask: GridMask) -> np.ndarray:
    """|p*(grad_h d) - 1| at interior nodes, upwind one-sided gradient.

    Returns an (count,) array aligned with the dof ordering.
    """
    d = dist.d.reshape(-1)
    h = dist.grid.h
    p, row = mask.nodes, dist.grid.nx
    # interior nodes never touch the lattice edge (build_grid's halo ring)
    dW, dE, dS, dN, dc = d[p - 1], d[p + 1], d[p - row], d[p + row], d[p]
    gx = np.where(dW <= dE, (dc - dW) / h, (dE - dc) / h)
    gy = np.where(dS <= dN, (dc - dS) / h, (dN - dc) / h)
    # no-inflow components vanish
    gx = np.where(np.minimum(dW, dE) <= dc, gx, 0.0)
    gy = np.where(np.minimum(dS, dN) <= dc, gy, 0.0)
    q = np.maximum(quartic_symbol(coeffs.M, gx, gy), 0.0)
    return np.abs(q ** 0.25 - 1.0)
