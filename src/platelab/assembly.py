"""Discrete quadratic forms on masked grid unknowns as sparse symmetric matrices.

Every form but the mass sums rows of ``geometry.difference_ops``, whose dof
columns are the clamped closure by zero extension: Q and Q0 of
h^2 s^T M s, s = (Dxx, Dyy, Dxy), and the grad forms of h^2 w |(Gx, Gy)|^2.
Q, Q0 and the unweighted grad form sum the rows at every lattice node, which
enforces du/dn = 0 at stencil order; singular weights d_n^-p sum the dof
rows only.
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


def assemble_Q0(grid: Grid, mask: GridMask) -> FormMatrix:
    """Q0(u) = h^2 * sum_nodes (Lap_h u)^2 with zero extension (13-point
    form): ``assemble_Q`` of the bilaplacian."""
    return assemble_Q(grid, mask, bilaplacian())


def assemble_Q(grid: Grid, mask: GridMask,
               coeffs: CoefficientField) -> FormMatrix:
    """Q(u) = h^2 * sum_nodes s(u)^T M s(u), s = (u_xx, u_yy, u_xy).

    Raises NotElliptic unless the lattice symbol of M is positive on
    theta != 0 (``ellipticity_window``).
    """
    if ellipticity_window(coeffs) <= 0.0:
        raise NotElliptic("the lattice symbol of the form is not positive")
    # only the stencils that M reads (no Dxy for the bilaplacian): a zero
    # row and column of M add no term to any entry.  Each temporary is
    # dropped once read, and the product is scaled in place.
    used = np.flatnonzero(np.any(coeffs.M != 0.0, axis=1))
    B = sp.vstack(difference_ops(grid, mask, [("Dxx", "Dyy", "Dxy")[k]
                                              for k in used]), format="csr")
    A = sp.kron(coeffs.M[np.ix_(used, used)], sp.identity(grid.n_nodes),
                format="csr")
    AB = (A @ B).tocsc()  # the format the product reads, converted once
    del A
    P = B.T @ AB
    del B, AB
    P = P.tocsr()
    P.data *= grid.h**2
    return FormMatrix(_symmetrize(P))


def assemble_weighted(grid: Grid, mask: GridMask, dist: Optional[DistanceField],
                      order: str, power: float, n_reg: int = 1) -> FormMatrix:
    """Weighted forms with weight d_n^-power on the interior nodes.

    order='mass': diag(h^2 w); 'grad': sum over (Gx, Gy) of G^T diag(h^2 w) G,
    over every lattice row (w = 1) at power 0 and over the dof rows otherwise.
    """
    n_reg = int(n_reg)
    if n_reg < 1:
        raise ValueError("n_reg must be >= 1")
    if power == 0.0 or dist is None:
        w = np.ones(mask.count)
        if power != 0.0:
            raise ValueError("a distance field is required for nonzero power")
    else:
        dn = mask.restrict(dist.d) + 1.0 / n_reg
        w = dn ** (-float(power))
    if order == "mass":
        return FormMatrix(sp.diags(grid.h**2 * w).tocsr())
    if order != "grad":
        raise ValueError(f"unknown weighted order {order!r}")
    rows = mask.nodes
    if power == 0.0:  # every lattice row, as Q0 sums, so the form is coercive
        rows, w = None, np.ones(grid.n_nodes)
    W = sp.diags(grid.h**2 * w).tocsr()
    grads = difference_ops(grid, mask, ("Gx", "Gy"), rows)
    return FormMatrix(_symmetrize(sum(G.T @ (W @ G) for G in grads)))


def interior_difference_ops(grid: Grid, mask: GridMask):
    """(Dxx, Dyy, Dxy, Gx, Gy) on the dof rows: the pointwise derivatives
    of a dof vector."""
    return difference_ops(grid, mask, rows=mask.nodes)


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
