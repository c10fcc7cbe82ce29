"""Discrete quadratic forms on masked grid unknowns as sparse symmetric matrices.

``dof_difference_ops`` is the clamped closure, zero extension: difference
rows at every lattice node acting on the dof columns only.  Q, Q0 and the
unweighted grad form sum all those rows with weight h^2, which enforces
du/dn = 0 at stencil order; singular weights d_n^-p sum the dof rows only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import EllipticityLost, NotElliptic
from .finsler import (_BILAPLACIAN_M, CoefficientField, DistanceField,
                      quartic_symbol)
from .geometry import Grid, GridMask, difference_ops


@dataclass(frozen=True)
class FormMatrix:
    """Sparse symmetric quadratic form on the masked unknowns."""

    matrix: sp.csr_matrix
    h: float

    def __call__(self, u, v=None) -> float:
        """Q(u) or the bilinear Q(u, v)."""
        if v is None:
            v = u
        return float(u @ (self.matrix @ v))


@dataclass(frozen=True)
class EllipticityWindow:
    lambda_ell: float


def _symmetrize(A: sp.spmatrix) -> sp.csr_matrix:
    A = A.tocsr()
    return ((A + A.T) * 0.5).tocsr()


def _ritz_probe(A: sp.csr_matrix) -> float:
    """Smallest Ritz value over a seeded random subspace of at most eight
    vectors (cheap PD probe)."""
    rng = np.random.default_rng(0)
    V = rng.standard_normal((A.shape[0], min(8, A.shape[0])))
    V, _ = np.linalg.qr(V)
    H = V.T @ (A @ V)
    return float(np.linalg.eigvalsh((H + H.T) / 2).min())


def assemble_Q0(grid: Grid, mask: GridMask) -> FormMatrix:
    """Q0(u) = h^2 * sum_nodes (Lap_h u)^2 with zero extension (13-point form)."""
    Dxx, Dyy, _, _, _ = dof_difference_ops(grid, mask)
    L = Dxx + Dyy
    Q0 = _symmetrize((L.T @ L) * grid.h**2)
    return FormMatrix(Q0, grid.h)


def assemble_Q(grid: Grid, mask: GridMask, coeffs: CoefficientField) -> FormMatrix:
    """Q(u) = h^2 * sum_nodes s(u)^T M s(u), s = (u_xx, u_yy, u_xy).

    For the bilaplacian tensor the assembly routes through Lap_h^T Lap_h so
    that Q equals Q0 entrywise.
    """
    M = coeffs.M
    if np.allclose(M, _BILAPLACIAN_M, atol=0.0):
        return assemble_Q0(grid, mask)
    B = sp.vstack(dof_difference_ops(grid, mask)[:3], format="csr")
    A = sp.kron(M, sp.identity(grid.n_nodes), format="csr")
    Q = _symmetrize((B.T @ (A @ B)) * grid.h**2)
    if _ritz_probe(Q) <= 0.0:
        raise NotElliptic("assembled form has a nonpositive Ritz value")
    return FormMatrix(Q, grid.h)


def assemble_weighted(grid: Grid, mask: GridMask, dist: Optional[DistanceField],
                      order: str, power: float, n_reg: int = 1) -> FormMatrix:
    """Weighted forms with weight d_n^-power on the interior nodes.

    order='mass': diag(h^2 w); 'grad': sum over (Gx, Gy) of G^T diag(h^2 w) G,
    over every lattice row at power 0 and over the dof rows otherwise.
    """
    n_reg = int(n_reg)
    if n_reg < 1:
        raise ValueError("n_reg must be >= 1")
    if power == 0.0 or dist is None:
        w = np.ones(mask.count)
        if power != 0.0:
            raise ValueError("a distance field is required for nonzero power")
    else:
        dn = dist.interior_values(mask) + 1.0 / n_reg
        w = dn ** (-float(power))
    W = sp.diags(grid.h**2 * w).tocsr()
    if order == "mass":
        return FormMatrix(W, grid.h)
    if order != "grad":
        raise ValueError(f"unknown weighted order {order!r}")
    # power 0 keeps every lattice row, as Q0 does, so the form is coercive
    _, _, _, Gx, Gy = dof_difference_ops(grid, mask)
    if power == 0.0:
        W = sp.diags(np.full(grid.n_nodes, grid.h**2))
    else:
        Gx, Gy = Gx[mask.nodes], Gy[mask.nodes]
    A = sum(G.T @ (W @ G) for G in (Gx, Gy))
    return FormMatrix(_symmetrize(A), grid.h)


def dof_difference_ops(grid: Grid, mask: GridMask):
    """(Dxx, Dyy, Dxy, Gx, Gy) with a row at every lattice node and a column
    per dof: the clamped closure by zero extension, and the only place that
    selects dof columns."""
    return tuple(Op[:, mask.nodes] for Op in difference_ops(grid))


def interior_difference_ops(grid: Grid, mask: GridMask):
    """The dof rows of ``dof_difference_ops``."""
    return tuple(Op[mask.nodes] for Op in dof_difference_ops(grid, mask))


def principal_submatrix(form: FormMatrix, mask: GridMask,
                        sub_interior: np.ndarray) -> FormMatrix:
    """Restrict a form to the dofs whose nodes satisfy ``sub_interior``.

    This is the discrete meaning of restricting the quadratic form to the
    eroded subdomain.
    """
    keep = np.flatnonzero(mask.restrict(sub_interior))
    return FormMatrix(form.matrix[keep][:, keep].tocsr(), form.h)


# Lanczos vectors for the window's solve.  The spectrum of (Q, Q0)
# fills a band (about [0.94, 16] for diag(16, 1)), so its lower end sits in
# a dense cluster; ARPACK's default of 20 vectors for one eigenpair discards
# most of the Krylov space at each restart (3962 LU solves against 922 on
# rect_aniso at h = 1/32).
WINDOW_NCV = 80


def ellipticity_window(Q: FormMatrix, Q0: FormMatrix,
                       seed: int = 42) -> EllipticityWindow:
    """Lowest generalized eigenvalue of the pencil (Q, Q0): the lower end
    lambda_ell of the ellipticity window Q >= lambda_ell Q0."""
    from .spectral import lowest_eigenpairs

    lo = lowest_eigenpairs(Q, Q0, m=1, seed=seed, ncv=WINDOW_NCV)
    return EllipticityWindow(lambda_ell=float(lo.values[0]))


def perturb_coeffs(base: CoefficientField, delta_magnitude: float,
                   seed: int = 0) -> CoefficientField:
    """Add a reproducible constant symmetric tensor perturbation.

    The perturbation has operator norm exactly ``delta_magnitude`` in the
    orthonormal Hessian basis; symmetries a_ijkl = a_jikl = a_ijlk = a_klij
    hold by construction.  Raises EllipticityLost if the perturbed quartic
    symbol loses positivity on 64 sampled directions.
    """
    delta_magnitude = float(delta_magnitude)
    if delta_magnitude < 0:
        raise ValueError("delta magnitude must be nonnegative")
    if delta_magnitude == 0.0:
        return base
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((3, 3))
    S = (S + S.T) / 2.0
    S *= delta_magnitude / max(np.abs(np.linalg.eigvalsh(S)))
    Tinv = np.diag([1.0, 1.0, np.sqrt(2.0)])
    dM = Tinv @ S @ Tinv  # back to the multiplicity-weighted Voigt storage

    field = CoefficientField("perturbed", base.M + dM,
                             delta_norm=delta_magnitude)
    thetas = np.linspace(0.0, np.pi, 64, endpoint=False)
    q = quartic_symbol(field.M, np.cos(thetas), np.sin(thetas))
    if np.min(q) <= 1e-12:
        raise EllipticityLost(
            f"quartic symbol nonpositive (min {np.min(q):.3e}) after "
            f"perturbation of magnitude {delta_magnitude}")
    return field
