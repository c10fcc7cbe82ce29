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
    Qs = assembly.principal_submatrix(disk32.Q0, sub)
    Ms = assembly.principal_submatrix(disk32.mass, sub)
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


def test_factor_solves_only_when_applied(disk64, monkeypatch):
    # a LinearOperator left to find its own dtype makes one throwaway
    # solve; each application solves once through each of the LUs of the
    # disk's four mirror blocks
    lus = []
    splu = spla.splu

    class CountedLU:
        def __init__(self, lu):
            self.lu, self.solves = lu, 0

        def solve(self, b):
            self.solves += 1
            return self.lu.solve(b)

    monkeypatch.setattr(spla, "splu", lambda *a, **k: lus.append(
        CountedLU(splu(*a, **k))) or lus[-1])
    op = spectral.factor(disk64.Q0)
    assert [lu.solves for lu in lus] == [0, 0, 0, 0]
    assert op.dtype == disk64.Q0.matrix.dtype
    op @ np.ones(disk64.mask.count)
    assert [lu.solves for lu in lus] == [1, 1, 1, 1]


def _block_sizes(form, monkeypatch):
    """The order of each matrix ``factor(form)`` hands to splu."""
    sizes = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda B, **kw:
                        sizes.append(B.shape[0]) or splu(B, **kw))
    spectral.factor(form)
    return sizes


def _lattice_form(domain, h, coeffs=None):
    """(mask, Q0 or the Q of ``coeffs``) on ``domain`` at spacing h."""
    grid, mask = pl.build_grid(domain, h)
    form = (assembly.assemble_Q0(grid, mask) if coeffs is None
            else assembly.assemble_Q(grid, mask, coeffs))
    return mask, form


def test_factor_splits_the_disk_into_four_mirror_blocks(monkeypatch):
    # the characters (+, +), (+, -), (-, +), (-, -) of the two lattice
    # mirrors; a block is odd under a mirror only off its axis
    mask, Q0 = _lattice_form(pl.disk(1.0), 1.0 / 96)
    assert _block_sizes(Q0, monkeypatch) == [7324, 7228, 7228, 7133]
    assert mask.count == 7324 + 2 * 7228 + 7133


@pytest.mark.parametrize("domain, coeffs", [
    (pl.superellipse(1.0, 0.6, 4.0), None),
    (pl.rectangle(2.0, 1.0), pl.diagonal([[16.0, 0.0], [0.0, 1.0]])),
], ids=["superellipse", "rect_aniso"])
def test_factor_splits_symmetric_domains_into_four_blocks(domain, coeffs,
                                                          monkeypatch):
    mask, form = _lattice_form(domain, 1.0 / 96, coeffs)
    sizes = _block_sizes(form, monkeypatch)
    assert len(sizes) == 4 and sum(sizes) == mask.count


def test_factor_splits_a_mask_with_one_mirror_into_two_blocks(disk64,
                                                              monkeypatch):
    # the disk cut at x = 0.5 keeps only the mirror y -> -y
    X, _ = disk64.grid.meshgrid()
    mask = disk64.mask.within(X < 0.5)
    form = assembly.assemble_Q0(disk64.grid, mask)
    sizes = _block_sizes(form, monkeypatch)
    assert len(sizes) == 2 and sum(sizes) == mask.count


def test_factor_keeps_one_lu_for_a_form_no_mirror_leaves(disk64,
                                                        monkeypatch):
    # b01 != 0 couples u_xy to u_xx and u_yy, which each mirror flips in
    # sign against them; a CSR matrix carries no mask to mirror
    form = assembly.assemble_Q(disk64.grid, disk64.mask,
                               pl.product([[4.0, 1.0], [1.0, 2.0]]))
    assert _block_sizes(form, monkeypatch) == [disk64.mask.count]
    assert _block_sizes(disk64.Q0.matrix, monkeypatch) == [disk64.mask.count]


def test_factor_keeps_one_lu_below_the_split_size(disk32, monkeypatch):
    # the h = 1/32 disk's 3205 unknowns are below SPLIT_MIN_UNKNOWNS
    assert disk32.mask.count < spectral.SPLIT_MIN_UNKNOWNS
    assert _block_sizes(disk32.Q0, monkeypatch) == [disk32.mask.count]
    monkeypatch.setattr(spectral, "SPLIT_MIN_UNKNOWNS", disk32.mask.count)
    assert len(_block_sizes(disk32.Q0, monkeypatch)) == 4


def test_factor_blocks_solve_as_one_lu_does(disk64):
    b = np.random.default_rng(7).standard_normal(disk64.mask.count)
    A = disk64.Q0.matrix
    x = spectral.factor(disk64.Q0) @ b
    ref = spectral.factor(A) @ b
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)
    res = np.linalg.norm(A @ x - b)
    assert res <= 10.0 * max(np.linalg.norm(A @ ref - b),
                             1e-15 * np.linalg.norm(b))


def test_factor_blocks_fill_less_than_one_lu(disk64, monkeypatch):
    # L.nnz + U.nnz at h = 1/64: 1180676 in the four blocks against
    # 1881906 in one LU, a ratio of 0.627
    nnz = []
    splu = spla.splu

    def counted(B, **kw):
        lu = splu(B, **kw)
        nnz.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", counted)
    spectral.factor(disk64.Q0)
    blocks = sum(nnz)
    nnz.clear()
    spectral.factor(disk64.Q0.matrix)
    assert len(nnz) == 1 and blocks < 0.7 * nnz[0]


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
    # a symmetric form's CSR arrays are its CSC arrays: splu reads those of
    # a form no mirror leaves without a copy, and the LU solves as that of
    # the CSC copy does
    form = assembly.assemble_Q(disk32.grid, disk32.mask,
                               pl.product([[4.0, 1.0], [1.0, 2.0]]))
    b = np.random.default_rng(5).standard_normal(disk32.mask.count)
    seen = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu",
                        lambda A, **kw: seen.append(A) or splu(A, **kw))
    x = spectral.factor(form) @ b
    [A] = seen
    assert A.format == "csc"
    assert all(np.shares_memory(getattr(A, part), getattr(form.matrix, part))
               for part in ("data", "indices", "indptr"))
    lu = splu(form.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    assert np.array_equal(x, lu.solve(b))


def _whole_space(A, B, m, OPinv, seed=spectral.DEFAULT_SEED):
    """The pairs of ``lowest_eigenpairs`` as one Lanczos run on the whole
    space: its probe draws, its start vector, its stop and its sort."""
    n = A.matrix.shape[0]
    rng = np.random.default_rng(seed)
    for _ in range(4):
        rng.standard_normal(n)
    stop = 0 if m > 1 else spectral.DEFAULT_TOL * spectral.LANCZOS_TOL_RATIO
    vals, vecs = spla.eigsh(A.matrix, k=m, M=B.matrix, sigma=0.0, which="LM",
                            v0=rng.standard_normal(n), OPinv=OPinv, tol=stop)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _eigsh_sizes(monkeypatch):
    """The order of each pencil ``lowest_eigenpairs`` hands to eigsh."""
    sizes = []
    eigsh = spla.eigsh
    monkeypatch.setattr(spla, "eigsh", lambda A, **kw:
                        sizes.append(A.shape[0]) or eigsh(A, **kw))
    return sizes


def test_mirror_blocks_solve_the_pencil_as_the_whole_space_does(
        disk64, monkeypatch):
    # Q0 and the mass on the h = 1/64 disk: four Lanczos runs, one per
    # block, through the same block LUs as the whole-space run
    op = spectral.factor(disk64.Q0)
    sizes = _eigsh_sizes(monkeypatch)
    spec = pl.lowest_eigenpairs(disk64.Q0, disk64.mass, m=5, OPinv=op)
    assert sizes == [S.shape[1] for S, _ in op.blocks]
    assert len(sizes) == 4 and sum(sizes) == disk64.mask.count
    # a bare operator carries no blocks: one run on the whole space
    bare = spla.LinearOperator(op.shape, matvec=op.matvec, dtype=op.dtype)
    whole = pl.lowest_eigenpairs(disk64.Q0, disk64.mass, m=5, OPinv=bare)
    np.testing.assert_allclose(spec.values, whole.values, rtol=1e-10, atol=0)
    assert np.all(spec.residuals <= spectral.DEFAULT_TOL)
    G = spec.vectors.T @ (spec.B @ spec.vectors)
    assert np.allclose(G, np.eye(5), atol=1e-8)


def _character(v, mirrors):
    """The sign of v under each mirror, asserting v is even or odd."""
    signs = []
    for p in mirrors:
        sign = 1.0 if v[p] @ v > 0 else -1.0
        assert np.abs(v[p] - sign * v).max() <= 1e-12 * np.abs(v).max()
        signs.append(sign)
    return tuple(signs)


def test_mirror_blocks_fix_the_degenerate_pair(disk64):
    # lambda_2 = lambda_3 on the disk: each copy is the minimum of its own
    # block, (+, -) or (-, +), so every seed returns the same two vectors
    # up to sign and their order, which the rounding of the tie decides
    mirrors = [disk64.mask.mirror(axis) for axis in (0, 1)]
    op = spectral.factor(disk64.Q0)
    pairs = []
    for seed in (1, 2, 42):
        spec = pl.lowest_eigenpairs(disk64.Q0, disk64.mass, m=5, seed=seed,
                                    OPinv=op)
        chars = [_character(v, mirrors) for v in spec.vectors.T]
        assert sorted(chars[1:3]) == [(-1.0, 1.0), (1.0, -1.0)]
        pairs.append({c: v for c, v in zip(chars[1:3],
                                           spec.vectors.T[1:3])})
    for pair in pairs[1:]:
        for c, v in pair.items():
            ref = pairs[0][c]
            sign = np.sign(v @ ref)
            assert np.abs(sign * v - ref).max() <= 1e-10 * np.abs(ref).max()


def test_mass_no_mirror_leaves_is_solved_on_the_whole_space(monkeypatch):
    # B = diag(h^2 (1 + (x + y)/4)) on the h = 1/72 disk moves under each
    # mirror, so the pencil (Q0, B) goes through one Lanczos run on the
    # whole space, bit for bit as the direct eigsh call
    grid, mask = pl.build_grid(pl.disk(1.0), 1.0 / 72)
    x, y = (mask.restrict(c) for c in grid.meshgrid())
    Q0 = assembly.assemble_Q0(grid, mask)
    B = assembly.FormMatrix(
        sp.diags(grid.h**2 * (1.0 + (x + y) / 4.0)).tocsr(), mask)
    op = spectral.factor(Q0)
    assert len(op.blocks) == 4
    assert not any(spectral._invariant(B.matrix, p) for p in op.mirrors)
    sizes = _eigsh_sizes(monkeypatch)
    spec = pl.lowest_eigenpairs(Q0, B, m=1, OPinv=op)
    assert sizes == [mask.count]
    vals, vecs = _whole_space(Q0, B, 1, op)
    assert np.array_equal(spec.values, vals)
    assert np.array_equal(spec.vectors, vecs)


_HARDY_WEIGHTS = [(order, power, n) for order, power in (
    ("mass", 2.0), ("mass", 4.0), ("grad", 2.0)) for n in (8, 64, 96)]


@pytest.mark.parametrize("domain, h", [
    (pl.disk(1.0), 1 / 40), (pl.disk(1.0), 1 / 96),
    (pl.rectangle(2.0, 1.0), 1 / 96), (pl.superellipse(1.0, 0.6, 4.0), 1 / 64)],
    ids=["disk-40", "disk-96", "rectangle-96", "superellipse-64"])
def test_every_hardy_weight_is_mirror_invariant(domain, h):
    # the centred lattice's coordinates, the sdf and so d_n are exactly
    # symmetric at every h, dyadic or not: each Hardy W_n (hardy_grad,
    # rellich_mass, rellich_grad) is invariant under both mirrors
    grid, mask = pl.build_grid(domain, h)
    dist = pl.euclidean_from_sdf(domain, grid, mask)
    mirrors = [mask.mirror(axis) for axis in (0, 1)]
    assert all(p is not None for p in mirrors)
    held = [spectral._invariant(assembly.assemble_weighted(
        grid, mask, dist, order, power, n).matrix, p)
        for order, power, n in _HARDY_WEIGHTS for p in mirrors]
    assert held == [True] * 18


def test_hardy_pencil_on_a_split_form_is_solved_block_by_block(monkeypatch):
    # the rellich_mass pencil (Q0, W_40) on the h = 1/72 disk: one Lanczos
    # run per block of Q0's factor, the minimum of the whole-space run
    # through the same block LUs
    grid, mask = pl.build_grid(pl.disk(1.0), 1.0 / 72)
    dist = pl.euclidean_from_sdf(pl.disk(1.0), grid, mask)
    Q0 = assembly.assemble_Q0(grid, mask)
    W = assembly.assemble_weighted(grid, mask, dist, "mass", 4.0, 40)
    op = spectral.factor(Q0)
    sizes = _eigsh_sizes(monkeypatch)
    spec = pl.lowest_eigenpairs(Q0, W, m=1, OPinv=op)
    assert sizes == [S.shape[1] for S, _ in op.blocks] and len(sizes) == 4
    bare = spla.LinearOperator(op.shape, matvec=op.matvec, dtype=op.dtype)
    whole = pl.lowest_eigenpairs(Q0, W, m=1, OPinv=bare)
    assert sizes[4:] == [mask.count]
    np.testing.assert_allclose(spec.values, whole.values, rtol=1e-10, atol=0)


def test_form_below_the_split_size_is_solved_on_the_whole_space(disk32):
    op = spectral.factor(disk32.Q0)
    assert op.blocks == [] and op.mirrors == []
    spec = pl.lowest_eigenpairs(disk32.Q0, disk32.mass, m=5, OPinv=op)
    vals, vecs = _whole_space(disk32.Q0, disk32.mass, 5, op)
    assert np.array_equal(spec.values, vals)
    assert np.array_equal(spec.vectors, vecs)
    assert np.array_equal(disk32.spec.values, vals)


def test_no_convergence_in_a_block_certifies_the_lifted_pairs(disk64,
                                                              monkeypatch):
    # a partial pair of a block is a block vector; its residual is taken
    # on the full pencil after the lift by S
    op = spectral.factor(disk64.Q0)
    S = op.blocks[0][0]
    y = np.zeros((S.shape[1], 1))
    y[0, 0] = 1.0

    def eigsh(A, **kw):
        raise spla.ArpackNoConvergence("no convergence", np.array([1.0]), y)

    monkeypatch.setattr(spla, "eigsh", eigsh)
    with pytest.raises(NoConvergence) as info:
        pl.lowest_eigenpairs(disk64.Q0, disk64.mass, m=2, OPinv=op)
    ref = spectral._residuals(disk64.Q0.matrix, disk64.mass.matrix,
                              np.array([1.0]), S @ y)
    assert info.value.residuals == pytest.approx(ref, rel=1e-12)
