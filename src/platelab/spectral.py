"""Sparse symmetric generalized eigensolver with residual certificates."""
from __future__ import annotations

import itertools
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
# looser stop returns the next eigenvalue in its place.  The mirror blocks
# keep this rule, though a repeat that the mirrors make falls into two
# blocks: for m = 3 on the h = 1/96 disk a looser stop in them saved no
# solves (84 against 84).
LANCZOS_TOL_RATIO = 1e-3
# ``factor`` splits no form with fewer unknowns: below it the blocks' set-up
# and the gather and scatter around each solve cost about what their smaller
# fill saves.  The time of the factor and 150 solves on the disk, blocks
# over one LU (2 vCPUs, scipy 1.17.1): Q0 1.00 at 5013 unknowns, 0.94-0.89
# at 7209-9841 and 0.87-0.97 from 12849 to 28913; the grad form 1.37 at
# 5013 and 1.07-1.05 from 12849 to 28913.  Only a split form's pencils are
# solved block by block, so a smaller one is solved on the whole space.
SPLIT_MIN_UNKNOWNS = 10_000


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenpairs of a pencil (A, B) with certified residuals."""

    values: np.ndarray      # (m,), nondecreasing
    vectors: np.ndarray     # (count, m), B-orthonormal
    residuals: np.ndarray   # (m,), ||A v - t B v|| / (t ||v||_B)
    B: sp.csr_matrix

    @property
    def m(self) -> int:
        return self.values.size

    def b_inner(self, u, v) -> float:
        return float(u @ (self.B @ v))


def _as_matrix(A: Union[FormMatrix, sp.spmatrix]) -> sp.csr_matrix:
    if isinstance(A, FormMatrix):
        return A.matrix
    return A.tocsr()


def _invariant(M: sp.csr_matrix, p: np.ndarray) -> bool:
    """Whether M[p][:, p] equals M array for array (indptr, indices and
    data, after sorting): p is a mirror, its own inverse."""
    P = M[p]
    P = sp.csr_matrix((P.data, p[P.indices], P.indptr), shape=P.shape)
    P.sort_indices()
    return all(np.array_equal(getattr(P, k), getattr(M, k))
               for k in ("indptr", "indices", "data"))


def _mirrors(A: FormMatrix) -> list:
    """The dof permutations p of the lattice mirrors (``GridMask.mirror``)
    that leave A exactly invariant (``_invariant``)."""
    if A.mask is None:
        return []
    found = []
    for axis in (0, 1):
        p = A.mask.mirror(axis)
        if p is not None and _invariant(A.matrix, p):
            found.append(p)
    return found


def _orbit_bases(mirrors) -> list:
    """The +-1 orbit basis S of each character chi of the group that the
    commuting involutions ``mirrors`` generate, as (n, dim) CSC matrices.

    S has a column per orbit on which chi is 1 over the stabilizer, and
    chi(g) at each dof g(r), r the orbit's least dof.  The columns of all
    characters are mutually orthogonal, n in all."""
    n = mirrors[0].size
    group = [(np.arange(n), ())]  # (g, the mirrors whose product g is)
    for a, p in enumerate(mirrors):
        group += [(p[g], word + (a,)) for g, word in group]
    rep = np.min([g for g, _ in group], axis=0)
    bases = []
    for chi in itertools.product((1.0, -1.0), repeat=len(mirrors)):
        # sum of chi(g) over the g that take the orbit's least dof to k:
        # |stabilizer| chi(g), or 0 where chi is -1 on the stabilizer
        sign = np.zeros(n)
        for g, word in group:
            sign[g[rep] == np.arange(n)] += np.prod([chi[a] for a in word])
        rows = np.flatnonzero(sign)
        reps, cols = np.unique(rep[rows], return_inverse=True)
        bases.append(sp.csc_matrix((np.sign(sign[rows]), (rows, cols)),
                                   shape=(n, reps.size)))
    return bases


def factor(A) -> spla.LinearOperator:
    """x -> A^-1 x for the positive definite A, through sparse LUs with a
    symmetric minimum-degree ordering and diagonal pivots (splu's default,
    COLAMD with partial pivoting, fills the h = 1/96 disk's LU 1.5x more).

    A ``FormMatrix`` of at least ``SPLIT_MIN_UNKNOWNS`` unknowns that a
    lattice mirror leaves invariant (``_mirrors``) is factored as its
    blocks S^T A S, one per character of the mirrors' group, S that
    character's orbit basis (``_orbit_bases``).  The blocks' spans are
    A-invariant and mutually orthogonal, so A^-1 = sum over the blocks of
    S (S^T A S)^-1 S^T exactly; their LUs fill a third less than A's on
    the h = 1/96 disk (3.27M against 4.98M nonzeros).  The blocks are
    formed and factored one at a time.  The operator carries them as
    ``blocks``, the pairs (S, y -> (S^T A S)^-1 y), and the permutations
    it split by as ``mirrors``, so that ``lowest_eigenpairs`` can solve a
    pencil block by block.

    Any other A is factored whole, with ``blocks`` and ``mirrors`` empty.
    It must be symmetric, as every ``FormMatrix`` is: its CSR arrays are
    then its CSC arrays, and splu reads them in place; A is not copied."""
    import scipy.sparse.linalg as spla

    Am = _as_matrix(A)
    mirrors = (_mirrors(A) if isinstance(A, FormMatrix)
               and Am.shape[0] >= SPLIT_MIN_UNKNOWNS else [])
    if mirrors:
        # the gather and scatter product is built first: held beside the
        # LUs, it sits below them in the heap
        bases = _orbit_bases(mirrors)
        cuts = np.cumsum([Sk.shape[1] for Sk in bases])[:-1]
        S = sp.hstack(bases, format="csr")
        blocks = ((Sk.T @ (Am @ Sk)).tocsc() for Sk in bases)
    else:
        blocks = [sp.csc_matrix((Am.data, Am.indices, Am.indptr),
                                shape=Am.shape)]
    lus = [spla.splu(B, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True}) for B in blocks]
    if mirrors:
        def solve(b):
            parts = np.split(S.T @ b, cuts)
            return S @ np.concatenate([lu.solve(c)
                                       for lu, c in zip(lus, parts)])
    else:
        solve = lus[0].solve
    # a LinearOperator without a dtype finds one by a throwaway solve
    op = spla.LinearOperator(Am.shape, matvec=solve, dtype=Am.dtype)
    op.mirrors = mirrors
    op.blocks = [(Sk, spla.LinearOperator((Sk.shape[1],) * 2, dtype=Am.dtype,
                                          matvec=lu.solve))
                 for Sk, lu in zip(bases, lus)] if mirrors else []
    return op


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
    <= ``tol`` on the full pencil.

    When ``OPinv`` carries the mirror blocks of ``factor`` and B is
    invariant under each of its mirrors (``_invariant``), each block's
    span is A- and B-invariant and the pencils (S^T A S, S^T B S) are
    solved one at a time, from the start vector S^T v0: the lowest
    min(m, dim - 1) pairs of each, lifted by S, merged and the lowest m
    kept.  A pair that is repeated under a mirror, such as the disk's
    lambda_2 = lambda_3, then falls into two blocks, and each returned
    vector is even or odd under every mirror.  Any other pencil is solved
    on the whole space.
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
        OPinv = factor(A)
    blocks = getattr(OPinv, "blocks", [])
    if not (blocks and all(_invariant(Bm, p) for p in OPinv.mirrors)):
        blocks = [(None, OPinv)]
    vals, vecs = [], []
    for S, solve in blocks:
        if S is None:
            Ak, Bk, v0k, k = Am, Bm, v0, m
        else:
            # in mode 3 with OPinv, eigsh reads only A's shape and dtype
            # (scipy 1.17.1, arpack.py): the block's mass stands in for A
            Bk = (S.T @ (Bm @ S)).tocsr()
            Ak, v0k, k = Bk, S.T @ v0, min(m, S.shape[1] - 1)
        lift = (lambda y: y) if S is None else (lambda y: S @ y)
        try:
            w, y = spla.eigsh(Ak, k=k, M=Bk, sigma=0.0, which="LM", v0=v0k,
                              OPinv=solve,
                              tol=tol * LANCZOS_TOL_RATIO if m == 1 else 0)
        except spla.ArpackNoConvergence as exc:
            partial = None
            if len(exc.eigenvalues):
                partial = _residuals(Am, Bm, exc.eigenvalues,
                                     lift(exc.eigenvectors))
            raise NoConvergence("eigsh failed to converge",
                                residuals=partial) from exc
        vals.append(w)
        vecs.append(lift(y))
    vals = np.concatenate(vals)
    vecs = np.hstack(vecs)
    order = np.argsort(vals)[:m]
    vals = vals[order]
    vecs = vecs[:, order]
    res = _residuals(Am, Bm, vals, vecs)
    if np.any(res > tol):
        raise NoConvergence(
            f"residuals {res} exceed tol {tol}", residuals=res)
    return Spectrum(values=vals, vectors=vecs, residuals=res, B=Bm)
