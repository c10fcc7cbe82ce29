import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import platelab as pl
from platelab import assembly, spectral
from platelab.errors import MassNotPD, NoConvergence


def _diag_pencil(n=12):
    A = sp.diags(np.arange(1.0, n + 1.0)).tocsr()
    B = sp.eye(n, format="csr")
    return A, B


def test_diag_pencil_exact():
    A, B = _diag_pencil()
    spec = pl.lowest_eigenpairs(A, B, m=3)
    assert np.allclose(spec.values, [1.0, 2.0, 3.0], atol=1e-10)
    assert np.all(spec.residuals <= 1e-8)


def test_eigenvectors_b_orthonormal(disk32):
    spec = disk32.spec
    G = spec.vectors.T @ (spec.B @ spec.vectors)
    assert np.allclose(G, np.eye(spec.m), atol=1e-8)
    assert np.all(np.diff(spec.values) >= -1e-10)


def test_residual_certificates(disk32):
    spec = disk32.spec
    A = disk32.Q0.matrix
    for k in range(spec.m):
        v = spec.vectors[:, k]
        r = np.linalg.norm(A @ v - spec.values[k] * (spec.B @ v))
        r /= spec.values[k] * np.sqrt(spec.b_inner(v, v))
        assert r == pytest.approx(spec.residuals[k], rel=1e-6)
        assert r <= 1e-8


def test_rayleigh_quotient_bounds_lowest(disk32):
    rng = np.random.default_rng(11)
    lam1 = disk32.spec.values[0]
    for _ in range(5):
        v = rng.standard_normal(disk32.mask.count)
        assert disk32.Q0(v) / disk32.mass(v) >= lam1 * (1 - 1e-10)


def test_determinism():
    A, B = _diag_pencil(30)
    A = A + sp.diags(0.1 * np.sin(np.arange(30)))
    s1 = pl.lowest_eigenpairs(A, B, m=4, seed=7)
    s2 = pl.lowest_eigenpairs(A, B, m=4, seed=7)
    assert np.max(np.abs(s1.values - s2.values)) < 1e-12
    assert np.max(np.abs(np.abs(s1.vectors) - np.abs(s2.vectors))) < 1e-9


def _raise_no_convergence(values, vectors):
    def eigsh(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", values, vectors)
    return eigsh


def test_no_convergence_carries_partial_residuals(monkeypatch):
    # partial pair (1.1, e_1) of diag(1..12): ||A e1 - 1.1 e1|| / 1.1
    A, B = _diag_pencil()
    e1 = np.zeros((12, 1))
    e1[0, 0] = 1.0
    monkeypatch.setattr(spla, "eigsh",
                        _raise_no_convergence(np.array([1.1]), e1))
    with pytest.raises(NoConvergence) as info:
        pl.lowest_eigenpairs(A, B, m=2)
    assert info.value.residuals == pytest.approx([0.1 / 1.1], rel=1e-12)


def test_no_convergence_without_partial_pairs(monkeypatch):
    A, B = _diag_pencil()
    monkeypatch.setattr(spla, "eigsh",
                        _raise_no_convergence(np.empty(0), np.empty((12, 0))))
    with pytest.raises(NoConvergence) as info:
        pl.lowest_eigenpairs(A, B, m=2)
    assert info.value.residuals is None


def test_mass_not_pd():
    A, _ = _diag_pencil()
    B = sp.diags(np.concatenate([np.ones(2), -5.0 * np.ones(10)])).tocsr()
    with pytest.raises(MassNotPD):
        pl.lowest_eigenpairs(A, B, m=2)


def test_m_out_of_range():
    A, B = _diag_pencil(6)
    with pytest.raises(ValueError):
        pl.lowest_eigenpairs(A, B, m=0)
    with pytest.raises(ValueError):
        pl.lowest_eigenpairs(A, B, m=6)


def test_minmax_monotone_under_restriction(disk32):
    # the pencil on any principal submatrix has eigenvalues >= the originals
    from platelab import assembly
    X, Y = disk32.grid.meshgrid()
    sub = disk32.domain.sdf(X, Y) < -0.2
    Qs = assembly.principal_submatrix(disk32.Q0, disk32.mask, sub)
    Ms = assembly.principal_submatrix(disk32.mass, disk32.mask, sub)
    spec_s = pl.lowest_eigenpairs(Qs, Ms, m=disk32.spec.m)
    assert np.all(spec_s.values >= disk32.spec.values - 1e-8)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_lowest_eigenpairs_rejects_tol_not_positive(tol):
    # the residual certificate is the only convergence check: tol = nan
    # would pass every residual
    A, B = _diag_pencil()
    with pytest.raises(ValueError, match="tol"):
        pl.lowest_eigenpairs(A, B, m=3, tol=tol)


def test_factor_solves_disk_forms(disk32):
    grad = assembly.assemble_weighted(disk32.grid, disk32.mask, None,
                                      "grad", 0.0, 1)
    b = np.random.default_rng(3).standard_normal(disk32.mask.count)
    for form in (disk32.Q0, grad):
        x = spectral.factor(form) @ b
        assert np.linalg.norm(form.matrix @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_factor_solves_only_when_applied(disk32, monkeypatch):
    # a LinearOperator left to find its own dtype makes one throwaway solve
    solves = []
    splu = spla.splu

    class CountedLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            solves.append(1)
            return self.lu.solve(b)

    monkeypatch.setattr(spla, "splu",
                        lambda *a, **k: CountedLU(splu(*a, **k)))
    op = spectral.factor(disk32.Q0)
    assert solves == [] and op.dtype == disk32.Q0.matrix.dtype
    op @ np.ones(disk32.mask.count)
    assert solves == [1]


def test_lowest_eigenpairs_matches_default_ordering_lu(disk32):
    A = disk32.Q0.matrix
    lu = spla.splu(A.tocsc())
    ref = pl.lowest_eigenpairs(
        disk32.Q0, disk32.mass, m=disk32.spec.m,
        OPinv=spla.LinearOperator(A.shape, matvec=lu.solve))
    assert np.allclose(disk32.spec.values, ref.values, rtol=1e-9, atol=0.0)


def _callers(path, name):
    """(module, innermost enclosing def) of every call to ``name``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "attr", getattr(f, "id", None)) == name:
                    found.append((path.stem, owner))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_every_lu_goes_through_factor():
    # every matrix platelab factors is SPD, so each LU takes factor's
    # symmetric ordering
    src = Path(spectral.__file__).resolve().parent
    found = [c for p in sorted(src.glob("*.py")) for c in _callers(p, "splu")]
    assert found == [("spectral", "factor")]


def test_every_eigsh_goes_through_lowest_eigenpairs():
    # one stopping rule (LANCZOS_TOL_RATIO for m = 1) covers every Lanczos run
    src = Path(spectral.__file__).resolve().parent
    found = [c for p in sorted(src.glob("*.py")) for c in _callers(p, "eigsh")]
    assert found == [("spectral", "lowest_eigenpairs")]


def test_clamped_disk_pair_and_m_three_match_m_five(disk32):
    # acceptance 01 reads lambda_1 only, so this reads the m >= 2 path on
    # the pencil every spectrum uses: lambda_2 = lambda_3 is exact under the
    # lattice's 90 degree symmetry (3.6e-13 apart), and ARPACK at tol = 0
    # finds both copies whether it is asked for three pairs or five
    five = disk32.spec.values
    assert abs(five[1] - five[2]) <= 1e-10 * five[1]
    assert five[1] == pytest.approx(414.53593423, rel=1e-10)
    three = pl.lowest_eigenpairs(disk32.Q0, disk32.mass, m=3).values
    np.testing.assert_allclose(three, five[:3], rtol=1e-12, atol=0)


def test_single_eigenpair_is_the_minimum_of_a_degenerate_pair():
    # guards the m >= 2 path at machine precision: with ARPACK stopped at
    # tol * LANCZOS_TOL_RATIO for every m, four[1] is the next eigenvalue
    # 0.7814896 instead of the partner 0.7814344
    # hardy_grad shifted by 2^5 * mass against W_40 on the h = 1/40 disk:
    # the lowest eigenvalue is a pair, and a Lanczos start vector taken
    # from the shift by 2^4 converged to a higher one (+1.9%).  The
    # pair is the tie of the grad form's (1, 0) and (0, 1) parity blocks,
    # mirror images on the disk (README limitation 7): each block's minimum
    # is 0.7814344 and its second eigenvalue 0.7814896; the (0, 0) block's
    # minimum is 0.796264
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 40)
    dist = pl.euclidean_from_sdf(dom, grid, mask)
    grad = assembly.assemble_weighted(grid, mask, None, "grad", 0.0, 1)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    W = assembly.assemble_weighted(grid, mask, dist, "mass", 2.0, 40)
    A = assembly.FormMatrix((grad.matrix + 2.0**5 * mass.matrix).tocsr())
    four = pl.lowest_eigenpairs(A, W, m=4).values
    assert four[1] == pytest.approx(four[0], rel=1e-9)
    assert four[0] == pytest.approx(0.7814344, rel=1e-6)
    one = pl.lowest_eigenpairs(A, W, m=1).values[0]
    assert one == pytest.approx(four.min(), rel=1e-9)


def test_single_eigenpair_stops_at_the_certificate_accuracy(disk32,
                                                           monkeypatch):
    # rellich_mass at n = 32 on the h = 1/32 disk: ARPACK's default tol = 0
    # iterates to machine precision, past what the certificate checks
    W = assembly.assemble_weighted(disk32.grid, disk32.mask, disk32.dist,
                                   "mass", 4.0, 32)
    A = disk32.Q0.matrix
    lu = spectral.factor(A)
    solves = []
    OPinv = spla.LinearOperator(A.shape, matvec=lambda x: solves.append(1)
                                or lu @ x)
    starts = []
    eigsh = spla.eigsh
    monkeypatch.setattr(spla, "eigsh", lambda *a, **k:
                        starts.append(k["v0"]) or eigsh(*a, **k))
    tol = 1e-8
    spec = pl.lowest_eigenpairs(disk32.Q0, W, m=1, tol=tol, OPinv=OPinv)
    stopped = len(solves)
    solves.clear()
    ref, _ = eigsh(A, k=1, M=W.matrix, sigma=0.0, which="LM", v0=starts[0],
                   OPinv=OPinv, tol=0)
    assert stopped < len(solves)
    assert spec.values[0] == pytest.approx(ref[0], rel=1e-12)
    assert spec.residuals[0] <= tol / 10


def test_factor_reads_the_form_in_place(disk32, monkeypatch):
    # a symmetric form's CSR arrays are its CSC arrays: splu reads them
    # without a copy, and the LU solves as that of the CSC copy does
    grad = assembly.assemble_weighted(disk32.grid, disk32.mask, None,
                                      "grad", 0.0, 1)
    b = np.random.default_rng(5).standard_normal(disk32.mask.count)
    seen = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda A, **kw: seen.append(A) or splu(A, **kw))
    for form in (disk32.Q0, grad):
        x = spectral.factor(form) @ b
        A = seen[-1]
        assert A.format == "csc"
        assert all(np.shares_memory(getattr(A, part),
                                    getattr(form.matrix, part))
                   for part in ("data", "indices", "indptr"))
        lu = splu(form.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        assert np.array_equal(x, lu.solve(b))
