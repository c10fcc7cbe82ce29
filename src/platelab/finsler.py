"""Coefficient tensors a_ijkl, the dual Finsler metric and distance-to-boundary.

Every operator is constant, so its fourth-order symbol is one 3x3 "Voigt"
matrix M acting on s(u) = (u_xx, u_yy, u_xy): sum_ijkl a_ijkl u_ij u_kl =
s^T M s, with index multiplicities folded in (M[2,2] = 4 a_0101 etc.).  The
dual metric is p*(xi) = (s(xi)^T M s(xi))^(1/4) with
s(xi) = (xi_x^2, xi_y^2, xi_x xi_y).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeQuartic
from .geometry import (_SCAN, AnalyticDomain, Grid, GridMask,
                       _support_distance)

_VOIGT_MULT = np.array([1.0, 1.0, 2.0])
_IDX = {(0, 0): 0, (1, 1): 1, (0, 1): 2, (1, 0): 2}
_Q_ZERO = 1e-12     # finsler_distance's floor on q / max q


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


def bilaplacian() -> CoefficientField:
    """a_ijkl = delta_ij delta_kl, the form of the bilaplacian."""
    return CoefficientField("bilaplacian", np.array(
        [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))


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

    M is the symmetric (3, 3) Voigt matrix; the direction arrays broadcast.
    """
    xx, yy, xy = xi_x * xi_x, xi_y * xi_y, xi_x * xi_y
    return (xx * (M[0, 0] * xx + 2.0 * M[0, 1] * yy + 2.0 * M[0, 2] * xy)
            + yy * (M[1, 1] * yy + 2.0 * M[1, 2] * xy) + M[2, 2] * xy * xy)


def dual_metric(coeffs: CoefficientField, xi) -> float:
    """p*(xi) = (sum a_ijkl xi_i xi_j xi_k xi_l)^(1/4)."""
    q = float(quartic_symbol(coeffs.M, xi[0], xi[1]))
    if q < -1e-12 * max(1.0, np.dot(xi, xi) ** 2):
        raise NegativeQuartic(f"quartic form = {q} < 0 at xi={tuple(xi)}")
    return max(q, 0.0) ** 0.25


@dataclass(frozen=True)
class DistanceField:
    """Grid samples of distance-to-boundary on the interior nodes ``mask``."""

    grid: Grid
    mask: GridMask
    d: np.ndarray               # (ny, nx), 0 outside the interior mask

    def interior_values(self) -> np.ndarray:
        return self.mask.restrict(self.d)


def finsler_distance(domain: AnalyticDomain, grid: Grid, mask: GridMask,
                     coeffs: CoefficientField) -> DistanceField:
    """d(x) = min over unit nu of (h(nu) - nu . x) / p*(nu) at every dof, h =
    ``domain.support``, by ``geometry._support_distance`` (the superellipse's
    sdf is the same minimum with p* = 1): on a convex domain the nearest
    boundary point lies on a supporting line, at its Euclidean offset over
    p*(normal).  Assumes a convex unit ball {q <= 1} (the CLI refuses other
    operators), so that d solves p*(grad d) = 1 (Bardi & Capuzzo-Dolcetta
    1997).  Raises NegativeQuartic when q <= _Q_ZERO * max q (cos(pi/2) is
    6e-17, not 0) at one of the _SCAN scanned angles."""
    t = 2.0 * np.pi * np.arange(_SCAN) / _SCAN
    q = quartic_symbol(coeffs.M, np.cos(t), np.sin(t))
    if not q.min() > _Q_ZERO * q.max():
        raise NegativeQuartic(f"dual metric degenerates: q = {q.min()}")
    x, y = (mask.restrict(a) for a in grid.meshgrid())
    d = np.zeros(mask.interior.shape)
    d[mask.interior] = _support_distance(
        domain.support,
        lambda c, s: np.sqrt(np.sqrt(quartic_symbol(coeffs.M, c, s))), x, y)
    return DistanceField(grid, mask, d)


def euclidean_from_sdf(domain: AnalyticDomain, grid: Grid,
                       mask: GridMask) -> DistanceField:
    """Exact Euclidean distance sampled from the analytic sdf (geometry uses)."""
    X, Y = grid.meshgrid()
    return DistanceField(grid, mask,
                         np.where(mask.interior, -domain.sdf(X, Y), 0.0))


def equivalence_constants(dist: DistanceField, dist_euclid: DistanceField):
    """(c1_hat, c2_hat): min and max of d / d_Euclid over interior nodes.
    Raises ValueError unless both are sampled on the same nodes."""
    if not np.array_equal(dist.mask.interior, dist_euclid.mask.interior):
        raise ValueError("the two distances are sampled on different masks")
    dv = dist.interior_values()
    de = dist_euclid.interior_values()
    ratio = dv / np.maximum(de, 1e-300)
    return float(ratio.min()), float(ratio.max())


def eikonal_residual(dist: DistanceField,
                     coeffs: CoefficientField) -> np.ndarray:
    """|p*(grad_h d) - 1| at interior nodes, upwind one-sided gradient.

    Returns an (count,) array aligned with the dof ordering.
    """
    d = dist.d.reshape(-1)
    h = dist.grid.h
    p, row = dist.mask.nodes, dist.grid.nx
    # interior nodes never touch the lattice edge (build_grid's halo ring)
    dW, dE, dS, dN, dc = d[p - 1], d[p + 1], d[p - row], d[p + row], d[p]
    gx = np.where(dW <= dE, (dc - dW) / h, (dE - dc) / h)
    gy = np.where(dS <= dN, (dc - dS) / h, (dN - dc) / h)
    # no-inflow components vanish
    gx = np.where(np.minimum(dW, dE) <= dc, gx, 0.0)
    gy = np.where(np.minimum(dS, dN) <= dc, gy, 0.0)
    q = np.maximum(quartic_symbol(coeffs.M, gx, gy), 0.0)
    return np.abs(q ** 0.25 - 1.0)
