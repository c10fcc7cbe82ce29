"""Sparse symmetric generalized eigensolver with residual certificates."""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np
import scipy.sparse as sp

from .assembly import FormMatrix
from .errors import MassNotPD, NoConvergence

if TYPE_CHECKING:  # only a factor or a solve imports the solver
    import scipy.sparse.linalg as spla

DEFAULT_TOL = 1e-8
DEFAULT_SEED = 42
# ARPACK's stop for one eigenpair, as a fraction of the certified tol: its
# default (0, machine precision) took ``hardy`` on the h = 1/40 disk about
# 4600 LU solves where 3500 give the same minima.  m >= 2 keeps 0: Lanczos
# sees the second copy of a repeated eigenvalue only through rounding, and a
# looser stop returns the next eigenvalue in its place.
LANCZOS_TOL_RATIO = 1e-3


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenpairs of a pencil (A, B) with certified residuals."""

    values: np.ndarray      # (m,), nondecreasing
    vectors: np.ndarray     # (count, m), B-orthonormal
    residuals: np.ndarray   # (m,), ||A v - t B v|| / (t ||v||_B)
    B: sp.csr_matrix
    m: int

    def b_inner(self, u, v) -> float:
        return float(u @ (self.B @ v))


def _as_matrix(A: Union[FormMatrix, sp.spmatrix]) -> sp.csr_matrix:
    if isinstance(A, FormMatrix):
        return A.matrix
    return A.tocsr()


def factor(A) -> spla.LinearOperator:
    """x -> A^-1 x through one sparse LU of the positive definite A, with a
    symmetric minimum-degree ordering and diagonal pivots (splu's default,
    COLAMD with partial pivoting, fills the h = 1/96 disk's LU 1.5x more).

    A must be symmetric, as every ``FormMatrix`` is: its CSR arrays are then
    its CSC arrays, and splu reads them in place; A is not copied."""
    import scipy.sparse.linalg as spla

    Am = _as_matrix(A)
    lu = spla.splu(sp.csc_matrix((Am.data, Am.indices, Am.indptr),
                                 shape=Am.shape),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    # a LinearOperator without a dtype finds one by a throwaway solve
    return spla.LinearOperator(Am.shape, matvec=lu.solve, dtype=Am.dtype)


def _residuals(Am, Bm, vals, vecs) -> np.ndarray:
    """Certificates ||A v - t B v|| / (|t| ||v||_B) of the pairs (vals, vecs)."""
    res = np.empty(len(vals))
    for k, t in enumerate(vals):
        v = vecs[:, k]
        bn = np.sqrt(float(v @ (Bm @ v)))
        res[k] = np.linalg.norm(Am @ v - t * (Bm @ v)) / (abs(t) * bn)
    return res


def lowest_eigenpairs(A, B, m: int, tol: float = DEFAULT_TOL,
                      seed: int = DEFAULT_SEED,
                      OPinv: Optional[spla.LinearOperator] = None) -> Spectrum:
    """The m algebraically smallest generalized eigenvalues of (A, B).

    Shift-invert at sigma = 0 (A is positive definite for all pencils used
    here).  Deterministic for fixed (A, B, m, tol, seed).  ``OPinv``
    lets a caller reuse one ``factor(A)`` across a sweep of mass matrices.
    ARPACK stops at ``tol * LANCZOS_TOL_RATIO`` for m = 1 and at machine
    precision for m >= 2; either way every pair returned has a residual
    <= ``tol``.
    """
    import scipy.sparse.linalg as spla

    Am = _as_matrix(A)
    Bm = _as_matrix(B)
    n = Am.shape[0]
    if m < 1 or m > n - 1:
        raise ValueError(f"m={m} out of range for n={n}")
    if not tol > 0:  # nan too: the certificate is the only convergence test
        raise ValueError(f"tol={tol} must be positive")

    # cheap PD probe on the mass side
    rng = np.random.default_rng(seed)
    for _ in range(4):
        z = rng.standard_normal(n)
        if float(z @ (Bm @ z)) <= 0.0:
            raise MassNotPD("mass matrix fails the positivity probe")

    v0 = rng.standard_normal(n)
    if OPinv is None:
        OPinv = factor(Am)
    try:
        vals, vecs = spla.eigsh(Am, k=m, M=Bm, sigma=0.0, which="LM",
                                v0=v0, OPinv=OPinv,
                                tol=tol * LANCZOS_TOL_RATIO if m == 1 else 0)
    except spla.ArpackNoConvergence as exc:
        partial = None
        if len(exc.eigenvalues):
            partial = _residuals(Am, Bm, exc.eigenvalues, exc.eigenvectors)
        raise NoConvergence("eigsh failed to converge",
                            residuals=partial) from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    res = _residuals(Am, Bm, vals, vecs)
    if np.any(res > tol):
        raise NoConvergence(
            f"residuals {res} exceed tol {tol}", residuals=res)
    return Spectrum(values=vals, vectors=vecs, residuals=res, B=Bm, m=m)
