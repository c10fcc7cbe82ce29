"""Discrete quadratic forms on masked grid unknowns as sparse symmetric matrices.

``dof_difference_ops`` is the clamped closure, zero extension: difference
rows at every lattice node acting on the dof columns only.  Q, Q0 and the
unweighted grad form sum all those rows with weight h^2 (``_lattice_form``),
which enforces du/dn = 0 at stencil order; singular weights d_n^-p sum the
dof rows only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import EllipticityLost, NotElliptic
from .finsler import CoefficientField, DistanceField, bilaplacian
from .geometry import Grid, GridMask, difference_ops


@dataclass(frozen=True)
class FormMatrix:
    """Sparse symmetric quadratic form on the masked unknowns."""

    matrix: sp.csr_matrix

    def __call__(self, u, v=None) -> float:
        """Q(u) or the bilinear Q(u, v)."""
        if v is None:
            v = u
        return float(u @ (self.matrix @ v))


def _symmetrize(A: sp.spmatrix) -> sp.csr_matrix:
    A = A.tocsr()
    return ((A + A.T) * 0.5).tocsr()


def _lattice_form(ops, M, h: float) -> FormMatrix:
    """h^2 * sum over every lattice row of s^T M s, s = the rows of the
    stacked ``ops``: the one assembly of the forms with no singular weight."""
    B = sp.vstack(ops, format="csr")
    A = sp.kron(M, sp.identity(ops[0].shape[0]), format="csr")
    return FormMatrix(_symmetrize((B.T @ (A @ B)) * h**2))


def assemble_Q0(grid: Grid, mask: GridMask, *, ops=None) -> FormMatrix:
    """Q0(u) = h^2 * sum_nodes (Lap_h u)^2 with zero extension (13-point
    form): ``assemble_Q`` of the bilaplacian."""
    return assemble_Q(grid, mask, bilaplacian(), ops=ops)


def assemble_Q(grid: Grid, mask: GridMask, coeffs: CoefficientField, *,
               ops=None) -> FormMatrix:
    """Q(u) = h^2 * sum_nodes s(u)^T M s(u), s = (u_xx, u_yy, u_xy).

    ``ops`` is ``dof_difference_ops(grid, mask)``, built here when None, so
    that forms of several tensors on one grid can share one build.  Raises
    NotElliptic unless the lattice symbol of M is positive on theta != 0
    (``ellipticity_window``).
    """
    if ellipticity_window(coeffs) <= 0.0:
        raise NotElliptic("the lattice symbol of the form is not positive")
    # only the Hessian rows stay alive through the product
    hess = (dof_difference_ops(grid, mask) if ops is None else ops)[:3]
    return _lattice_form(hess, coeffs.M, grid.h)


def assemble_weighted(grid: Grid, mask: GridMask, dist: Optional[DistanceField],
                      order: str, power: float, n_reg: int = 1, *,
                      rows=None) -> FormMatrix:
    """Weighted forms with weight d_n^-power on the interior nodes.

    order='mass': diag(h^2 w); 'grad': sum over (Gx, Gy) of G^T diag(h^2 w) G,
    over every lattice row at power 0 and over the dof rows otherwise.
    ``rows``, read only by a grad form at nonzero power, is those dof rows
    of (Gx, Gy), built here when None, so that a sweep over n builds them
    once.
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
        return FormMatrix(W)
    if order != "grad":
        raise ValueError(f"unknown weighted order {order!r}")
    # power 0 keeps every lattice row, as Q0 does, so the form is coercive;
    # h^2 sits in M to weight each row before the product, as W does below
    if power == 0.0:
        return _lattice_form(dof_difference_ops(grid, mask)[3:],
                             grid.h**2 * np.identity(2), 1.0)
    if rows is None:
        rows = interior_difference_ops(
            grid, mask, ops=dof_difference_ops(grid, mask)[3:])
    return FormMatrix(_symmetrize(sum(G.T @ (W @ G) for G in rows)))


def dof_difference_ops(grid: Grid, mask: GridMask):
    """(Dxx, Dyy, Dxy, Gx, Gy) with a row at every lattice node and a column
    per dof: the clamped closure by zero extension, and the only place that
    selects dof columns."""
    return tuple(Op[:, mask.nodes] for Op in difference_ops(grid))


def interior_difference_ops(grid: Grid, mask: GridMask, *, ops=None):
    """The dof rows of ``ops``, ``dof_difference_ops(grid, mask)``, built
    here when None."""
    if ops is None:
        ops = dof_difference_ops(grid, mask)
    return tuple(Op[mask.nodes] for Op in ops)


def principal_submatrix(form: FormMatrix, mask: GridMask,
                        sub_interior: np.ndarray) -> FormMatrix:
    """Restrict a form to the dofs whose nodes satisfy ``sub_interior``.

    This is the discrete meaning of restricting the quadratic form to the
    eroded subdomain.
    """
    keep = np.flatnonzero(mask.restrict(sub_interior))
    return FormMatrix(form.matrix[keep][:, keep].tocsr())


def ellipticity_window(coeffs: CoefficientField) -> float:
    """lambda_ell = inf over theta != 0 of q_h / q0_h, q_h the lattice symbol
    of ``coeffs`` and q0_h the bilaplacian's.  By Parseval on the lattice a
    zero-extended constant form is Q(u) = int q_h |u^|^2 dtheta, so
    Q >= lambda_ell Q0 on every mask, O(h) below the pencil's minimum.

    q_h = s_h^T M s_h / h^4 with s_h = (X^2, Y^2, kappa X Y),
    X = 2 sin(theta_x / 2), Y = 2 sin(theta_y / 2) and
    kappa = cos(theta_x / 2) cos(theta_y / 2).  With (X, Y) = rho (c, s),
    c = cos phi and s = sin phi, q0_h = rho^4 / h^4 and s_h = rho^2 (P +
    kappa R), P = (c^2, s^2, 0), R = (0, 0, c s); along each ray kappa falls
    from 1 (theta -> 0, the continuum ratio) to 0.  So the ratio is
    a + 2 b kappa + e kappa^2 with a = P^T M P, b = P^T M R, e = R^T M R,
    least at kappa = 0, 1 or -b / e, and phi (period pi) is taken on 3601
    points, then twice on 201 points around the minimum.
    """
    def ratio_min(phi):
        c, s = np.cos(phi), np.sin(phi)
        PR = np.array([[c * c, s * s, 0 * c], [0 * c, 0 * c, c * s]])
        (a, b), (_, e) = np.einsum("ikn,kl,jln->ijn", PR, coeffs.M, PR)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.clip(np.nan_to_num(-b / e), 0, 1)
        return np.minimum.reduce([a, a + 2 * b + e, a + 2 * b * k + e * k * k])

    phi, dphi = np.linspace(0.0, np.pi, 3601, retstep=True)
    for _ in range(2):
        mid = phi[np.argmin(ratio_min(phi))]
        phi, dphi = np.linspace(mid - dphi, mid + dphi, 201, retstep=True)
    return float(ratio_min(phi).min())


def perturb_coeffs(base: CoefficientField, delta_magnitude: float,
                   seed: int = 0) -> CoefficientField:
    """Add a reproducible constant symmetric tensor perturbation.

    The perturbation has operator norm exactly ``delta_magnitude`` in the
    orthonormal Hessian basis; symmetries a_ijkl = a_jikl = a_ijlk = a_klij
    hold by construction.  Raises EllipticityLost unless the lattice symbol
    of the perturbed tensor is positive, as ``assemble_Q`` requires.
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
    r = ellipticity_window(field)
    if r <= 1e-12:
        raise EllipticityLost(
            f"lattice symbol nonpositive (min ratio {r:.3e} to the "
            f"bilaplacian) after perturbation of magnitude {delta_magnitude}")
    return field
