import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import platelab as pl
from platelab import assembly, finsler, spectral
from platelab.errors import EllipticityLost, NotElliptic
from platelab.geometry import GridMask, difference_ops, eroded_mask
from test_spectral import _callers


def _single_node_setup():
    # a 5x5 lattice whose one interior node has a full ring of exterior
    # nodes around it
    grid = pl.Grid(h=0.5, origin=(-1.0, -1.0), nx=5, ny=5)
    interior = np.zeros((5, 5), dtype=bool)
    interior[2, 2] = True
    return grid, pl.GridMask(interior)


def test_q0_isolated_node_value():
    grid, mask = _single_node_setup()
    h = grid.h
    Q0 = assembly.assemble_Q0(grid, mask)
    u = np.array([1.0])
    # rows at all lattice nodes: center (4/h^2)^2 plus four side rows (1/h^2)^2
    assert Q0(u) == pytest.approx(20.0 / h**2)


def test_grad_forms_isolated_node_row_sets():
    grid, mask = _single_node_setup()
    u = np.array([1.0])
    # power 0 sums every lattice row: the four neighbour rows each give
    # (1/2h)^2 * h^2, and the dof's own row has a zero centred gradient
    grad = assembly.assemble_weighted(grid, mask, None, "grad", 0.0, 1)
    assert grad(u) == 1.0
    # a singular weight sums the dof's own row only
    half = finsler.DistanceField(grid=grid, mask=mask,
                                 d=np.full((grid.ny, grid.nx), 0.5))
    weighted = assembly.assemble_weighted(grid, mask, half, "grad", 2.0, 1)
    assert weighted(u) == 0.0


def test_every_difference_op_goes_through_the_seam():
    # the clamped closure (which dof column a stencil tap reads) is the
    # builder's dof-column map; every operator comes from the builder
    src = Path(assembly.__file__).resolve().parent
    found = [c for p in sorted(src.glob("*.py"))
             for c in _callers(p, "difference_ops")]
    assert found == [("assembly", "assemble_Q"),
                     ("assembly", "assemble_weighted"),
                     ("assembly", "interior_difference_ops"),
                     ("experiments", "measure_eroded_hessian_bound"),
                     ("verifier", "measure_cross_term_constant")]
    # a tap off the mask reads 0: every column is a dof, and the one dof of
    # the isolated-node lattice is read by its own row and its 8 neighbours'
    grid, mask = _single_node_setup()
    ops = difference_ops(grid, mask)
    assert all(Op.shape == (grid.n_nodes, 1) for Op in ops)
    assert [Op.nnz for Op in ops] == [3, 3, 4, 2, 2]


def test_q_isolated_node_hessian_tensor():
    grid, mask = _single_node_setup()
    h = grid.h
    hess_tensor = finsler.CoefficientField("hess", np.diag([1.0, 1.0, 2.0]))
    Q = assembly.assemble_Q(grid, mask, hess_tensor)
    u = np.array([1.0])
    # center 8/h^4, four side rows 4/h^4, four cross rows 2*(1/(4h^2))^2 each
    assert Q(u) == pytest.approx(12.5 / h**2)


def _same_csr(A, B):
    return all(np.array_equal(getattr(A, part), getattr(B, part))
               for part in ("indptr", "indices", "data"))


def _kron_difference_ops(grid):
    """(Dxx, Dyy, Dxy, Gx, Gy) on the full lattice, n_nodes x n_nodes, as
    Kronecker products of the 1-D centred stencils: the reference for
    ``difference_ops``, whose weights round as these do."""
    h = grid.h
    ex, ey = np.ones(grid.nx), np.ones(grid.ny)
    Tx = sp.diags([ex[:-1], -2 * ex, ex[:-1]], [-1, 0, 1], format="csr")
    Ty = sp.diags([ey[:-1], -2 * ey, ey[:-1]], [-1, 0, 1], format="csr")
    Cx = sp.diags([-ex[:-1], ex[:-1]], [-1, 1], format="csr") / (2 * h)
    Cy = sp.diags([-ey[:-1], ey[:-1]], [-1, 1], format="csr") / (2 * h)
    Ix = sp.identity(grid.nx, format="csr")
    Iy = sp.identity(grid.ny, format="csr")
    return (sp.kron(Iy, Tx, format="csr") / h**2,
            sp.kron(Ty, Ix, format="csr") / h**2,
            sp.kron(Cy, Cx, format="csr"),
            sp.kron(Iy, Cx, format="csr"),
            sp.kron(Cy, Ix, format="csr"))


_REFERENCE_DOMAINS = {"disk": pl.disk(1.0), "rectangle": pl.rectangle(2.0, 1.0),
                      "superellipse": pl.superellipse(1.0, 0.7, 4)}


@pytest.mark.parametrize("name", sorted(_REFERENCE_DOMAINS))
def test_difference_ops_equal_the_kron_reference(name):
    # every view, bit for bit: lattice rows, dof rows, a band of rows and,
    # on an all-true mask, the full lattice operator itself
    for n in (8, 20, 28, 40):
        grid, mask = pl.build_grid(_REFERENCE_DOMAINS[name], 1.0 / n)
        ref = _kron_difference_ops(grid)
        X, Y = grid.meshgrid()   # the lattice nodes within 3h of the edge
        band = np.flatnonzero(np.abs(_REFERENCE_DOMAINS[name].sdf(X, Y))
                              < 3.0 * grid.h)
        full = GridMask(np.ones((grid.ny, grid.nx), dtype=bool))
        views = (
            (difference_ops(grid, mask), [R[:, mask.nodes] for R in ref]),
            (assembly.interior_difference_ops(grid, mask),
             [R[mask.nodes][:, mask.nodes] for R in ref]),
            (difference_ops(grid, mask, rows=band),
             [R[band][:, mask.nodes] for R in ref]),
            (difference_ops(grid, full), ref))
        for got, want in views:
            assert len(got) == 5
            assert all(_same_csr(A, B) for A, B in zip(got, want))
        # a subset of names is the same subset of operators
        grads = difference_ops(grid, mask, ("Gx", "Gy"), band)
        assert all(_same_csr(A, B) for A, B in zip(grads, views[2][1][3:]))


def test_q_bilaplacian_equals_q0_bitwise():
    # Q0 is assemble_Q of the bilaplacian, and the power-0 grad form sums
    # every lattice row; both equal, bit for bit, the direct formulas
    # h^2 L^T L and sum over G of G^T diag(h^2) G on the zero-extended rows
    # (at h = 1/28 the grad form rounds otherwise if h^2 scales the product)
    for dom in (pl.disk(1.0), pl.rectangle(2.0, 1.0)):
        for n in (20, 24, 28, 40, 96):
            grid, mask = pl.build_grid(dom, 1.0 / n)
            Dxx, Dyy, _, Gx, Gy = (Op[:, mask.nodes]
                                   for Op in _kron_difference_ops(grid))
            L = Dxx + Dyy
            ref_q0 = assembly._symmetrize((L.T @ L) * grid.h**2)
            W = sp.diags(np.full(grid.n_nodes, grid.h**2))
            ref_grad = assembly._symmetrize(sum(G.T @ (W @ G)
                                                for G in (Gx, Gy)))
            assert _same_csr(assembly.assemble_Q0(grid, mask).matrix, ref_q0)
            grad = assembly.assemble_weighted(grid, mask, None, "grad", 0.0, 1)
            assert _same_csr(grad.matrix, ref_grad)


_Q_TENSORS = {"bilaplacian": pl.bilaplacian(),
              "diagonal": pl.diagonal([[4, 2], [2, 1]]),
              "product": pl.product([[4, 1], [1, 2]]),
              "perturbed": assembly.perturb_coeffs(pl.bilaplacian(), 0.3,
                                                   seed=3)}


@pytest.mark.parametrize("name", sorted(_REFERENCE_DOMAINS))
def test_q_equals_the_three_stencil_product_bitwise(name):
    # assemble_Q builds only the stencils its tensor reads and scales in
    # place; bit for bit, it is h^2 B^T kron(M, I) B over all three Hessian
    # stencils (Dxy rows too), symmetrized as ((P + P^T) * 0.5)
    for n in (16, 28, 40):
        grid, mask = pl.build_grid(_REFERENCE_DOMAINS[name], 1.0 / n)
        B = sp.vstack([Op[:, mask.nodes]
                       for Op in _kron_difference_ops(grid)[:3]], format="csr")
        for coeffs in _Q_TENSORS.values():
            A = sp.kron(coeffs.M, sp.identity(grid.n_nodes), format="csr")
            P = ((B.T @ (A @ B)) * grid.h**2).tocsr()
            ref = ((P + P.T) * 0.5).tocsr()
            assert _same_csr(assembly.assemble_Q(grid, mask, coeffs).matrix,
                             ref)


def test_every_form_is_sorted_csr_equal_to_its_transpose(disk32):
    # spectral.factor hands splu a form's CSR arrays as its CSC arrays,
    # which is exact only for such a matrix
    grid, mask, dist = disk32.grid, disk32.mask, disk32.dist
    X, Y = grid.meshgrid()
    forms = [assembly.assemble_Q(grid, mask, c) for c in _Q_TENSORS.values()]
    forms += [assembly.assemble_Q0(grid, mask),
              assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1),
              assembly.assemble_weighted(grid, mask, dist, "mass", 4.0, 8),
              assembly.assemble_weighted(grid, mask, None, "grad", 0.0, 1),
              assembly.assemble_weighted(grid, mask, dist, "grad", 2.0, 8),
              assembly.principal_submatrix(disk32.Q0, mask,
                                           disk32.domain.sdf(X, Y) < -0.25)]
    for form in forms:
        A = form.matrix
        assert A.format == "csr"
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        assert np.all(np.diff(rows * A.shape[1] + A.indices) > 0)
        assert (A != A.T).nnz == 0


def test_assemble_q_transient_memory():
    # each temporary is dropped once read and the product is scaled in
    # place: on the h = 1/48 disk one call traces a 4.0x peak of the
    # returned matrix's bytes, 5.4x when every temporary lived to the end
    grid, mask = pl.build_grid(pl.disk(1.0), 1.0 / 48)
    assembly.assemble_Q0(grid, mask)  # lazy imports and cached node indices
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        Q = assembly.assemble_Q0(grid, mask).matrix
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    nbytes = Q.data.nbytes + Q.indices.nbytes + Q.indptr.nbytes
    assert peak < 4.6 * nbytes


def test_q0_consistency_smooth_field():
    # u = sin^2(pi x)sin^2(pi y) (flat to first order at the boundary) on the
    # unit square: integral of (lap u)^2 = 2 pi^4
    errs = []
    for h in (1.0 / 32, 1.0 / 64):
        dom = pl.rectangle(1.0, 1.0)
        grid, mask = pl.build_grid(dom, h)
        xs, ys = (mask.restrict(c) + 0.5 for c in grid.meshgrid())
        u = np.sin(np.pi * xs) ** 2 * np.sin(np.pi * ys) ** 2
        Q0 = assembly.assemble_Q0(grid, mask)
        errs.append(abs(Q0(u) - 2 * np.pi**4) / (2 * np.pi**4))
    assert errs[1] < errs[0]
    assert errs[1] < 0.05


def test_forms_positive_definite(disk32):
    rng = np.random.default_rng(3)
    for A in (disk32.Q0, disk32.mass):
        for _ in range(4):
            v = rng.standard_normal(disk32.mask.count)
            assert A(v) > 0


def test_bilinear_consistency(disk32):
    rng = np.random.default_rng(4)
    u = rng.standard_normal(disk32.mask.count)
    v = rng.standard_normal(disk32.mask.count)
    grid, mask = disk32.grid, disk32.mask
    Dxx, Dyy, _, _, _ = _kron_difference_ops(grid)
    L = (Dxx + Dyy)[:, mask.nodes]
    direct = grid.h**2 * float((L @ u) @ (L @ v))
    assert disk32.Q0(u, v) == pytest.approx(direct, rel=1e-10)


def test_grad_forms_split_into_four_parity_blocks():
    # a characterization of today's centred gradient rows, not a property
    # to keep: Gx and Gy read the nodes two apart, so every grad form couples
    # only dofs whose (ix, iy) parities agree and splits into four 2h
    # sub-lattice blocks (README limitation 7), while Q0 couples all four.
    # The counts change when the grad stencil does.
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 40)
    dist = pl.euclidean_from_sdf(dom, grid, mask)
    iy, ix = np.divmod(mask.nodes, grid.nx)
    parity = 2 * (iy % 2) + ix % 2

    def cross_parity(form):
        C = form.matrix.tocoo()
        return np.count_nonzero(parity[C.row] != parity[C.col]), C.nnz

    for power, n in ((0.0, 1), (2.0, 40)):
        grad = assembly.assemble_weighted(grid, mask, dist, "grad", power, n)
        assert cross_parity(grad) == (0, 24433)
    assert cross_parity(assembly.assemble_Q0(grid, mask)) == (39336, 63769)


def test_weighted_mass_power_values():
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 16)
    W0 = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    assert np.allclose(W0.matrix.diagonal(), grid.h**2)
    const_dist = finsler.DistanceField(
        grid=grid, mask=mask, d=np.full((grid.ny, grid.nx), 0.5))
    W4 = assembly.assemble_weighted(grid, mask, const_dist, "mass", 4.0, 10**9)
    assert np.allclose(W4.matrix.diagonal(), grid.h**2 * 16.0, rtol=1e-6)


def test_weighted_monotone_in_n():
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 16)
    dist = pl.euclidean_from_sdf(dom, grid, mask)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(mask.count)
    prev = None
    for n in (4, 8, 16):
        val = assembly.assemble_weighted(grid, mask, dist, "mass", 2.0, n)(v)
        if prev is not None:
            assert val >= prev
        prev = val


def test_principal_submatrix_is_form_restriction():
    # the erosion study builds each eroded form on its own mask; bit for
    # bit, that is the principal submatrix of the form on the full mask
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 24)
    dist = pl.euclidean_from_sdf(dom, grid, mask)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    for coeffs in (pl.bilaplacian(), pl.product(np.diag([2.0, 1.0])),
                   pl.product([[4, 1], [1, 2]])):
        Q = assembly.assemble_Q(grid, mask, coeffs)
        for eps in (0.125, 0.25):
            sub = eroded_mask(dist, eps)
            assert 0 < sub.count < mask.count
            for full, part in (
                    (Q, assembly.assemble_Q(grid, sub, coeffs)),
                    (mass, assembly.assemble_weighted(grid, sub, None,
                                                      "mass", 0.0, 1))):
                ref = assembly.principal_submatrix(full, mask, sub.interior)
                assert _same_csr(part.matrix, ref.matrix)


def test_ellipticity_window_identity_and_scaling():
    base = pl.bilaplacian()
    assert assembly.ellipticity_window(base) == pytest.approx(1.0, abs=1e-8)
    scaled = finsler.CoefficientField("scaled", 3.0 * base.M)
    assert assembly.ellipticity_window(scaled) == pytest.approx(3.0, rel=1e-8)


def test_ellipticity_window_product_tensor():
    # the symbol minimum of (2 x^2 + y^2)^2 / |xi|^4 is 1
    lam = assembly.ellipticity_window(pl.product(np.diag([2.0, 1.0])))
    assert lam == pytest.approx(1.0, rel=0.05)


# (domain, base operator, delta, seed) of the window's perturbed pencils
_WINDOW_CASES = {
    "rect_aniso": (pl.rectangle(2.0, 1.0),
                   pl.diagonal([[16.0, 0.0], [0.0, 1.0]]), 0.01, 42),
    "disk": (pl.disk(1.0), pl.bilaplacian(), 0.1, 0),
}


def _window_tensor(case):
    _, base, delta, seed = _WINDOW_CASES[case]
    return assembly.perturb_coeffs(base, delta, seed=seed)


def _window_pencil(case, h):
    grid, mask = pl.build_grid(_WINDOW_CASES[case][0], h)
    return (assembly.assemble_Q(grid, mask, _window_tensor(case)),
            assembly.assemble_Q0(grid, mask))


def test_ellipticity_window_matches_dense_pencil():
    # the symbol bound holds on every mask, and the pencil's lowest
    # eigenvalue comes down to it at first order in h (gaps 2.2e-2, 1.15e-2,
    # 8.6e-3 on rect_aniso and 2.1e-2, 1.5e-2, 1.1e-2 on the disk)
    for case in _WINDOW_CASES:
        for h in (1.0 / 8, 1.0 / 12, 1.0 / 16):
            Qt, Q0 = _window_pencil(case, h)
            ref = sla.eigh(Qt.matrix.toarray(), Q0.matrix.toarray(),
                           eigvals_only=True)[0]
            gap = ref - assembly.ellipticity_window(_window_tensor(case))
            assert 0.1 * h < gap < 0.2 * h


def test_ellipticity_window_solve_count(monkeypatch):
    calls = []
    for mod, name in ((spectral, "factor"), (spla, "splu"), (spla, "eigsh")):
        monkeypatch.setattr(mod, name, lambda *a, **k: calls.append(name))
    assembly.ellipticity_window(_window_tensor("rect_aniso"))
    assert calls == []


def _continuum_window(M):
    """min over |xi| = 1 of q(xi) / |xi|^4 on 200001 directions."""
    t = np.linspace(0.0, np.pi, 200001)
    return float(finsler.quartic_symbol(M, np.cos(t), np.sin(t)).min())


def test_ellipticity_window_is_the_continuum_symbol_minimum():
    # for these perturbations the infimum sits at the ray limit theta -> 0,
    # so it is the continuum window
    for case in _WINDOW_CASES:
        tilde = _window_tensor(case)
        assert assembly.ellipticity_window(tilde) == pytest.approx(
            _continuum_window(tilde.M), abs=1e-6)


def test_ellipticity_window_follows_the_lattice_below_the_continuum():
    # bilaplacian + delta = 0.1 at seed 25: the lattice symbol ratio dips to
    # 0.97749 at a grid-scale theta, below the continuum window 0.99924, and
    # the pencil's lowest eigenvalue (0.97756 at h = 1/16) follows it
    tilde = assembly.perturb_coeffs(pl.bilaplacian(), 0.1, seed=25)
    grid, mask = pl.build_grid(pl.disk(1.0), 1.0 / 16)
    Qt = assembly.assemble_Q(grid, mask, tilde)
    Q0 = assembly.assemble_Q0(grid, mask)
    lam = assembly.ellipticity_window(tilde)
    assert lam < _continuum_window(tilde.M) - 0.02
    ref = sla.eigh(Qt.matrix.toarray(), Q0.matrix.toarray(),
                   eigvals_only=True)[0]
    assert lam <= ref <= lam + 1e-4


def test_lattice_symbol_rejects_a_continuum_elliptic_tensor():
    # s^T M s = x^4 + y^4 on the continuum, but at theta = (pi, pi) the
    # lattice symbol is s_h = (4, 4, 0) / h^2 and q_h = -32 / h^4 (c = 2),
    # or -6.4 / h^4 (c = 1.2: the form on the h = 1/8 disk has the
    # eigenvalue -400, which eight random Ritz vectors do not find)
    t = np.linspace(0.0, np.pi, 1001)
    grid, mask = pl.build_grid(pl.disk(1.0), 1.0 / 8)
    for c in (2.0, 1.2):
        M = np.array([[1.0, -c, 0.0], [-c, 1.0, 0.0], [0.0, 0.0, 2 * c]])
        q = finsler.quartic_symbol(M, np.cos(t), np.sin(t))
        assert np.allclose(q, np.cos(t) ** 4 + np.sin(t) ** 4)
        with pytest.raises(NotElliptic):
            assembly.assemble_Q(grid, mask,
                                finsler.CoefficientField("custom", M))


def test_perturbation_norm_is_delta():
    # perturb_coeffs promises ||M~ - M|| = delta in the orthonormal Hessian
    # basis, which T = diag(1, 1, 1/sqrt 2) maps the Voigt storage to
    base = pl.bilaplacian()
    pert = assembly.perturb_coeffs(base, 0.01, seed=0)
    assert pert.delta_norm == 0.01
    T = np.diag([1.0, 1.0, 1.0 / np.sqrt(2.0)])
    dM = T @ (pert.M - base.M) @ T
    assert np.max(np.abs(np.linalg.eigvalsh(dM))) == pytest.approx(
        0.01, rel=1e-12)


def test_perturbed_field_keeps_symmetries():
    pert = assembly.perturb_coeffs(pl.bilaplacian(), 0.05, seed=7)
    for (i, j, k, l) in [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1)]:
        a = pert.tensor_entry(i, j, k, l)
        assert a == pytest.approx(pert.tensor_entry(j, i, k, l))
        assert a == pytest.approx(pert.tensor_entry(k, l, i, j))


def test_perturbed_window_close_to_identity():
    # |s_h^T dM s_h| <= delta |T^-1 s_h|^2 <= delta (X^2 + Y^2)^2 = delta q0_h
    for delta in (0.01, 0.1, 0.5):
        for seed in range(8):
            pert = assembly.perturb_coeffs(pl.bilaplacian(), delta, seed=seed)
            lam = assembly.ellipticity_window(pert)
            assert 1 - delta - 1e-12 <= lam <= 1 + delta + 1e-12


def test_perturb_zero_is_identity():
    base = pl.bilaplacian()
    assert assembly.perturb_coeffs(base, 0.0, seed=0) is base


def test_perturb_ellipticity_lost():
    killed = False
    for seed in range(10):
        try:
            assembly.perturb_coeffs(pl.bilaplacian(), 2.5, seed=seed)
        except EllipticityLost:
            killed = True
            break
    assert killed


def test_perturb_rejects_a_lattice_nonpositive_symbol():
    # diag(16, 1) + delta = 1.5 at seed 30 keeps a positive continuum
    # symbol, but its lattice symbol ratio dips to -1.7e-3: assemble_Q would
    # refuse the form, so the perturbation is refused when it is drawn
    with pytest.raises(EllipticityLost):
        assembly.perturb_coeffs(pl.diagonal([[16.0, 0.0], [0.0, 1.0]]), 1.5,
                                seed=30)

